package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"time"

	"hierknem"
	"hierknem/internal/buffer"
	"hierknem/internal/des"
	"hierknem/internal/fabric"
	"hierknem/internal/hier"
	"hierknem/internal/knem"
	"hierknem/internal/mpi"
	"hierknem/internal/shm"
	"hierknem/internal/sweep"
)

// The layer probes: small programs that drive one layer's public API alone,
// so a layer's cost can be read without the layers above it. Each reports
// the fastest of three runs. Probe times do not sum to run_s.

// best returns the fastest of three runs of fn, in seconds.
func best(fn func() error) (float64, error) {
	fastest := 0.0
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if el := time.Since(t0).Seconds(); i == 0 || el < fastest {
			fastest = el
		}
	}
	return fastest, nil
}

// runProbes fills out with every probe metric. quick shrinks the worlds and
// the repeat counts so the smoke test stays fast.
func runProbes(cfg config, out map[string]float64) error {
	nodes, scale := 32, 1
	if cfg.quick {
		nodes, scale = 4, 20
	}
	put := func(name string, v float64) { out[name] = v }
	spec := hierknem.Stremi(nodes)
	np := spec.Nodes * spec.CoresPerNode()
	w, err := hierknem.NewWorld(spec, "bycore", np)
	if err != nil {
		return err
	}
	ppn := spec.CoresPerNode()
	run := func(body func(p *hierknem.Proc)) func() error {
		return func() error { w.Reset(); return w.Run(body) }
	}

	// des: chained timers on a bare engine, lock-step sleeps and pairwise
	// park/wake on the full world.
	timers := 1_000_000 / scale
	s, err := best(func() error {
		m, err := hierknem.Build(hierknem.Stremi(1))
		if err != nil {
			return err
		}
		left := timers
		var fire func()
		fire = func() {
			if left--; left > 0 {
				m.Eng.After(1e-6, fire)
			}
		}
		m.Eng.After(1e-6, fire)
		return m.Eng.Run()
	})
	if err != nil {
		return err
	}
	put("des.timer_ns", s*1e9/float64(timers))

	steps := 200 / scale
	if s, err = best(run(func(p *hierknem.Proc) {
		for i := 0; i < steps; i++ {
			p.Compute(1e-6)
		}
	})); err != nil {
		return err
	}
	put("des.switch_ns", s*1e9/float64(steps*np))

	if s, err = best(run(func(p *hierknem.Proc) {
		me, peer := p.DES(), w.Proc(p.Rank()^1).DES()
		for i := 0; i < steps; i++ {
			if p.Rank()%2 == 0 {
				peer.Wake()
				me.Park()
			} else {
				me.Park()
				peer.Wake()
			}
		}
	})); err != nil {
		return err
	}
	put("des.parkwake_ns", s*1e9/float64(steps*np))

	// fabric: a 32-NIC star behind an oversubscribed backplane; every
	// completion starts that NIC's next flow.
	flows := 20000 / scale
	var visits uint64
	if s, err = best(func() error {
		eng := des.New()
		net := fabric.NewNet(eng)
		const nics = 32
		bp := net.NewResource("backplane", nics*125e6/4)
		var tx, rx [nics]*fabric.Resource
		for i := range tx {
			tx[i] = net.NewResource(fmt.Sprintf("tx%d", i), 125e6)
			rx[i] = net.NewResource(fmt.Sprintf("rx%d", i), 125e6)
		}
		left := flows
		var start func(src int)
		start = func(src int) {
			if left--; left < 0 {
				return
			}
			dst := (src + 1 + left%(nics-1)) % nics
			size := float64(16<<10 + (left%7)*(8<<10))
			net.Start(size, 0, []*fabric.Resource{tx[src], bp, rx[dst]}, func() { start(src) })
		}
		eng.After(0, func() {
			for i := 0; i < nics; i++ {
				start(i)
			}
		})
		err := eng.Run()
		visits = net.Stats().ResourceVisits
		return err
	}); err != nil {
		return err
	}
	put("fabric.flow_ns", s*1e9/float64(flows))
	put("fabric.visits_per_flow", float64(visits)/float64(flows))

	// mpi: ping-pong between two ranks of the full world.
	msgs := 4000 / scale
	pingpong := func(a, b int, size int64) func(p *hierknem.Proc) {
		return func(p *hierknem.Proc) {
			c := w.WorldComm()
			buf := buffer.NewPhantom(size)
			for i := 0; i < msgs/2; i++ {
				switch p.Rank() {
				case a:
					p.Send(c, buf, b, 0)
					p.Recv(c, buf, b, 0)
				case b:
					p.Recv(c, buf, a, 0)
					p.Send(c, buf, a, 0)
				}
			}
		}
	}
	for _, pp := range []struct {
		name string
		peer int
		size int64
	}{{"mpi.eager_intra_ns", 1, 512}, {"mpi.eager_inter_ns", ppn, 512}, {"mpi.rndv_inter_ns", ppn, 64 << 10}} {
		if s, err = best(run(pingpong(0, pp.peer, pp.size))); err != nil {
			return err
		}
		put(pp.name, s*1e9/float64(msgs))
		if pp.name == "mpi.eager_inter_ns" {
			put("mpi.events_per_msg", float64(w.Machine.Eng.Processed())/float64(msgs))
		}
	}

	// mpi matching: every rank of a 192-rank job sends eight rounds to rank
	// 0, first into preposted receives, then ahead of them.
	fan, err := hierknem.NewWorld(hierknem.Stremi(min(nodes, 8)), "bycore", min(nodes, 8)*ppn)
	if err != nil {
		return err
	}
	const fanRounds = 8
	if s, err = best(func() error { fan.Reset(); return fan.Run(fanIn(fan, fanRounds)) }); err != nil {
		return err
	}
	put("mpi.match_deep_ns", s*1e9/float64(2*fanRounds*(fan.Size()-1)))

	barriers := 40 / min(scale, 4)
	if s, err = best(run(func(p *hierknem.Proc) {
		for i := 0; i < barriers; i++ {
			w.WorldComm().Barrier(p)
		}
	})); err != nil {
		return err
	}
	put("mpi.barrier_ns_per_rank", s*1e9/float64(barriers*np))

	splits := 8
	if s, err = best(run(func(p *hierknem.Proc) {
		for i := 0; i < splits; i++ {
			w.WorldComm().Split(p, p.Core().NodeID, p.Rank())
		}
	})); err != nil {
		return err
	}
	put("mpi.split_ms", s*1e3/float64(splits))

	// hier: the two-level structure HierKNEM builds on every call.
	builds := 8
	if s, err = best(run(func(p *hierknem.Proc) {
		for i := 0; i < builds; i++ {
			hier.Build(p, w.WorldComm(), i*37%np)
		}
	})); err != nil {
		return err
	}
	put("hier.build_us_per_rank", s*1e6/float64(builds*np))

	// knem and shm: one node, 64 KB, every other rank pulling from rank 0.
	one, err := hierknem.NewWorld(hierknem.Stremi(1), "bycore", ppn)
	if err != nil {
		return err
	}
	copies := 400 / scale
	src, dst := buffer.NewPhantom(64<<10), buffer.NewPhantom(64<<10)
	var cookie knem.Cookie
	if s, err = best(func() error {
		one.Reset()
		return one.Run(func(p *hierknem.Proc) {
			dev := p.Knem()
			if p.Rank() == 0 {
				cookie = dev.Register(src, p.Core(), knem.RightRead)
			}
			one.WorldComm().Barrier(p)
			for i := 0; p.Rank() != 0 && i < copies; i++ {
				if err := dev.Get(p.DES(), p.Core(), cookie, 0, dst); err != nil {
					panic(err)
				}
			}
		})
	}); err != nil {
		return err
	}
	gets := float64(copies * (ppn - 1))
	put("knem.get_ns", s*1e9/gets)
	put("knem.events_per_get", float64(one.Machine.Eng.Processed())/gets)

	if s, err = best(func() error {
		one.Reset()
		return one.Run(func(p *hierknem.Proc) {
			for i := 0; p.Rank() != 0 && i < copies; i++ {
				shm.CopyInOut(p.DES(), one.Machine, one.Proc(0).Core(), p.Core(), src, dst)
			}
		})
	}); err != nil {
		return err
	}
	put("shm.copyinout_ns", s*1e9/gets)

	// buffer: real 1 MB float64 payloads, the verification path only.
	const mb = 1 << 20
	a, b := buffer.NewReal(make([]byte, mb)), buffer.NewReal(make([]byte, mb))
	passes := 40 / min(scale, 10)
	if s, err = best(func() error {
		for i := 0; i < passes; i++ {
			buffer.Reduce(buffer.OpSum, buffer.Float64, a, b)
		}
		return nil
	}); err != nil {
		return err
	}
	put("buffer.reduce_gbps", float64(passes)*mb/s/1e9)
	if s, err = best(func() error {
		for i := 0; i < 8*passes; i++ {
			a.CopyFrom(b)
		}
		return nil
	}); err != nil {
		return err
	}
	put("buffer.copy_gbps", 8*float64(passes)*mb/s/1e9)

	// sweep: what the pool adds to a job that does nothing.
	const jobs = 1000
	if s, err = best(func() error {
		sw := sweep.New("probe", 1, nil)
		for i := 0; i < jobs; i++ {
			sweep.Go(sw, "empty", func(*sweep.Ctx) struct{} { return struct{}{} })
		}
		return sw.Run()
	}); err != nil {
		return err
	}
	put("sweep.job_overhead_us", s*1e6/jobs)

	return childProbes(cfg, put)
}

// fanIn is the matching stress of bench_des_test.go: rank 0 receives from
// everyone, once with receives posted first and once with sends first.
func fanIn(w *hierknem.World, rounds int) func(p *hierknem.Proc) {
	const size = 512
	return func(p *hierknem.Proc) {
		c, np := w.WorldComm(), w.Size()
		for phase := 0; phase < 2; phase++ {
			tag := phase * rounds
			if p.Rank() == 0 {
				if phase == 1 {
					p.Compute(1e-3) // let the sends arrive unexpected
				}
				reqs := make([]*mpi.Request, 0, (np-1)*rounds)
				for r := 0; r < rounds; r++ {
					for src := 1; src < np; src++ {
						reqs = append(reqs, p.Irecv(c, buffer.NewPhantom(size), src, tag+r))
					}
				}
				p.WaitAll(reqs...)
			} else {
				reqs := make([]*mpi.Request, 0, rounds)
				for r := 0; r < rounds; r++ {
					reqs = append(reqs, p.Isend(c, buffer.NewPhantom(size), 0, tag+r))
				}
				p.WaitAll(reqs...)
			}
			c.Barrier(p)
		}
	}
}

// childProbes are the two ratios that need a second process: the sweep's
// own parallelism, and the parallel DES engine against the serial one.
func childProbes(cfg config, put func(string, float64)) error {
	t := newSweepTarget(cfg.quick)
	_, serial, _, err := t.child(1)
	if err != nil {
		return err
	}
	_, parallel, _, err := t.child(runtime.NumCPU())
	if err != nil {
		return err
	}
	put("sweep.parallel_speedup", serial/parallel)

	var runs [2]engineProbe
	for i, env := range []string{"HIERKNEM_ENGINE=serial", "HIERKNEM_ENGINE=parallel"} {
		self, err := os.Executable()
		if err != nil {
			return err
		}
		args := []string{"-engine-probe"}
		if cfg.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), env)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("engine probe (%s): %w", env, err)
		}
		if err := json.Unmarshal(out, &runs[i]); err != nil {
			return fmt.Errorf("engine probe (%s): %w", env, err)
		}
	}
	put("des.parallel_ratio", runs[1].RunS/runs[0].RunS)
	put("des.phased_window_frac", runs[1].PhasedFrac)
	return nil
}

type engineProbe struct {
	RunS       float64 `json:"run_s"`
	PhasedFrac float64 `json:"phased_frac"`
}

// engineProbeMain is the child side of des.parallel_ratio: bcast_small ops
// for about a second under whatever HIERKNEM_ENGINE the parent set. The
// window statistics are read by name, so the benchmark still builds and
// reads 0 if the parallel engine and its accessor are ever retired.
func engineProbeMain(quick bool) error {
	t := newSimTarget(simDefs[0], quick)
	if err := t.setupOnce(nil); err != nil {
		return err
	}
	t.inproc(nil, 0)
	var times []float64
	for start := time.Now(); len(times) < 3 || (!quick && time.Since(start) < time.Second); {
		t0 := time.Now()
		t.inproc(nil, 0)
		times = append(times, time.Since(t0).Seconds())
	}
	res := engineProbe{RunS: fastFifth(times)}
	if m := reflect.ValueOf(t.w.Machine.Eng).MethodByName("WindowStats"); m.IsValid() && m.Type().NumIn() == 0 && m.Type().NumOut() == 1 {
		if ws := m.Call(nil)[0]; ws.Kind() == reflect.Struct {
			windows, phased := ws.FieldByName("Windows"), ws.FieldByName("PhasedWindows")
			if windows.CanUint() && phased.CanUint() && windows.Uint() > 0 {
				res.PhasedFrac = float64(phased.Uint()) / float64(windows.Uint())
			}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
