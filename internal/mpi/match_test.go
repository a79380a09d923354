package mpi

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"hierknem/internal/buffer"
)

// matchOracle is the seed's matching structure: one flat slice per side,
// scanned linearly in posting (resp. arrival) order. It is the reference the
// index is held to, record for record.
type matchOracle struct {
	posted []*posting
	unexp  []*envelope
}

// sameKey reports whether a send and a receive carry one matching key.
func sameKey(env *envelope, po *posting) bool {
	return env.ctx == po.ctx && env.srcWorld == po.srcWorld && env.tag == po.tag
}

func (o *matchOracle) matchPosted(env *envelope) *posting {
	for i, po := range o.posted {
		if sameKey(env, po) {
			o.posted = slices.Delete(o.posted, i, i+1)
			return po
		}
	}
	return nil
}

func (o *matchOracle) matchUnexpected(po *posting) *envelope {
	for i, env := range o.unexp {
		if sameKey(env, po) {
			o.unexp = slices.Delete(o.unexp, i, i+1)
			return env
		}
	}
	return nil
}

// keyUniverse bounds the keys a stream draws from.
type keyUniverse struct{ ctxs, srcs, tags int }

// matchStream drives one rank's two indexes the way Isend and Irecv do — a
// send matches the posted side or joins the unexpected side, a receive the
// reverse — against the oracle, and records every choice made.
type matchStream struct {
	t      *testing.T
	rng    *rand.Rand
	u      keyUniverse
	posted *postIndex
	unexp  *envIndex
	oracle matchOracle

	// Matched records are reused, as the per-rank pools reuse them. A
	// record's ordinal rides in its autopsy timestamp, which matching never
	// reads.
	poFree     []*posting
	envFree    []*envelope
	ordinal    float64
	trace      []float64 // per op: the matched record's ordinal or -1
	peakPosted int       // peak postings linked at once
	peakUnexp  int
}

func newMatchStream(t *testing.T, seed int64, u keyUniverse, posted *postIndex, unexp *envIndex) *matchStream {
	return &matchStream{t: t, rng: rand.New(rand.NewSource(seed)), u: u, posted: posted, unexp: unexp}
}

func (s *matchStream) send(ctx, src, tag int) {
	env := &envelope{}
	if k := len(s.envFree) - 1; k >= 0 {
		env, s.envFree = s.envFree[k], s.envFree[:k]
	}
	env.ctx, env.srcWorld, env.tag, env.sentAt = ctx, src, tag, s.ordinal
	s.ordinal++
	got, want := s.posted.match(env), s.oracle.matchPosted(env)
	if got != want {
		s.t.Fatalf("op %d: send (%d,%d,%d) matched posting %v, oracle %v", len(s.trace), ctx, src, tag, got, want)
	}
	if got == nil {
		s.unexp.add(env)
		s.oracle.unexp = append(s.oracle.unexp, env)
		s.peakUnexp = max(s.peakUnexp, s.unexp.count)
		s.trace = append(s.trace, -1)
	} else {
		if got.hnext != nil {
			s.t.Fatalf("op %d: matched posting still carries a chain link", len(s.trace))
		}
		s.trace = append(s.trace, got.postedAt)
		s.poFree = append(s.poFree, got)
		s.envFree = append(s.envFree, env)
	}
	s.check()
}

func (s *matchStream) recv(ctx, src, tag int) {
	po := &posting{}
	if k := len(s.poFree) - 1; k >= 0 {
		po, s.poFree = s.poFree[k], s.poFree[:k]
	}
	po.ctx, po.srcWorld, po.tag, po.postedAt = ctx, src, tag, s.ordinal
	s.ordinal++
	got, want := s.unexp.match(po), s.oracle.matchUnexpected(po)
	if got != want {
		s.t.Fatalf("op %d: recv (%d,%d,%d) matched envelope %v, oracle %v", len(s.trace), ctx, src, tag, got, want)
	}
	if got == nil {
		s.posted.add(po)
		s.oracle.posted = append(s.oracle.posted, po)
		s.peakPosted = max(s.peakPosted, s.posted.count)
		s.trace = append(s.trace, -1)
	} else {
		if got.hnext != nil {
			s.t.Fatalf("op %d: matched envelope still carries a chain link", len(s.trace))
		}
		s.trace = append(s.trace, got.sentAt)
		s.envFree = append(s.envFree, got)
		s.poFree = append(s.poFree, po)
	}
	s.check()
}

func (s *matchStream) check() {
	if s.posted.count != len(s.oracle.posted) || s.unexp.count != len(s.oracle.unexp) {
		s.t.Fatalf("op %d: counts posted=%d unexpected=%d, oracle %d and %d", len(s.trace),
			s.posted.count, s.unexp.count, len(s.oracle.posted), len(s.oracle.unexp))
	}
}

// run issues ops random operations. sendBias is the probability that an
// operation is a send.
func (s *matchStream) run(ops int, sendBias float64) {
	for i := 0; i < ops; i++ {
		ctx, src, tag := s.rng.Intn(s.u.ctxs), s.rng.Intn(s.u.srcs), s.rng.Intn(s.u.tags)
		if s.rng.Float64() < sendBias {
			s.send(ctx, src, tag)
		} else {
			s.recv(ctx, src, tag)
		}
	}
}

// drain matches away everything pending, oldest first.
func (s *matchStream) drain() {
	for len(s.oracle.unexp) > 0 {
		env := s.oracle.unexp[0]
		s.recv(env.ctx, env.srcWorld, env.tag)
	}
	for len(s.oracle.posted) > 0 {
		po := s.oracle.posted[0]
		s.send(po.ctx, po.srcWorld, po.tag)
	}
}

// checkEmpty asserts a drained or reset pair of indexes holds nothing: no
// count, every chain nil.
func checkEmpty(t *testing.T, posted *postIndex, unexp *envIndex) {
	t.Helper()
	if posted.count != 0 {
		t.Errorf("posted index not empty: count=%d", posted.count)
	}
	for i, c := range posted.buckets {
		if c != (postChain{}) {
			t.Errorf("posted bucket %d still holds a chain", i)
		}
	}
	if unexp.count != 0 {
		t.Errorf("unexpected index not empty: count=%d", unexp.count)
	}
	for i, c := range unexp.buckets {
		if c != (envChain{}) {
			t.Errorf("unexpected bucket %d still holds a chain", i)
		}
	}
}

// checkBounded asserts the structural size bound: a bucket array is at most
// twice the peak number of records it ever held at once.
func checkBounded(t *testing.T, what string, buckets, peak int) {
	t.Helper()
	if buckets > max(minBuckets, 2*peak) {
		t.Errorf("%s: %d buckets for a peak of %d live records", what, buckets, peak)
	}
}

// TestMatchIndexAgainstOracle holds the chained index to the flat-slice
// oracle on every operation of seeded random streams.
func TestMatchIndexAgainstOracle(t *testing.T) {
	for _, tc := range []struct {
		name        string
		u           keyUniverse
		minDoubling int // doublings past minBuckets both indexes must go through
	}{
		// Few keys: chains hold several keys and each key queues deep.
		{"tiny", keyUniverse{ctxs: 2, srcs: 4, tags: 4}, 0},
		// Many keys: sends and receives rarely meet, so both sides pile up
		// and the bucket arrays double while their chains are occupied.
		{"wide", keyUniverse{ctxs: 8, srcs: 64, tags: 256}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				var posted postIndex
				var unexp envIndex
				s := newMatchStream(t, seed, tc.u, &posted, &unexp)
				for phase := 0; phase < 6; phase++ {
					s.run(300, []float64{0.8, 0.2, 0.5}[phase%3])
				}
				if want := minBuckets << tc.minDoubling; len(posted.buckets) < want || len(unexp.buckets) < want {
					t.Errorf("seed %d: bucket arrays %d and %d, want both to reach %d",
						seed, len(posted.buckets), len(unexp.buckets), want)
				}
				s.drain()
				checkEmpty(t, &posted, &unexp)
				checkBounded(t, "posted", len(posted.buckets), s.peakPosted)
				checkBounded(t, "unexpected", len(unexp.buckets), s.peakUnexp)
			}
		})
	}
}

// TestMatchIndexResetReplays: a reset with receives and sends still pending
// leaves no record linked, and the reused index then makes the same choices
// as a fresh one.
func TestMatchIndexResetReplays(t *testing.T) {
	u := keyUniverse{ctxs: 2, srcs: 8, tags: 8}
	var posted postIndex
	var unexp envIndex
	first := newMatchStream(t, 7, u, &posted, &unexp)
	first.run(500, 0.5)
	if len(first.oracle.posted) == 0 || len(first.oracle.unexp) == 0 {
		t.Fatal("the stream left nothing pending on one side; the reset would be trivial")
	}
	posted.reset()
	unexp.reset()
	checkEmpty(t, &posted, &unexp)
	for _, po := range first.oracle.posted {
		if po.hnext != nil {
			t.Fatal("a dropped posting still carries a chain link")
		}
	}
	for _, env := range first.oracle.unexp {
		if env.hnext != nil {
			t.Fatal("a dropped envelope still carries a chain link")
		}
	}

	reused := newMatchStream(t, 11, u, &posted, &unexp)
	reused.run(500, 0.5)
	fresh := newMatchStream(t, 11, u, &postIndex{}, &envIndex{})
	fresh.run(500, 0.5)
	if !slices.Equal(reused.trace, fresh.trace) {
		t.Error("a reset index replayed the stream differently from a fresh one")
	}
}

// liveHeap is the heap still reachable after a forced collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestMatchIndexRetention: ring exchanges mint a fresh (ctx, src, tag) key
// per step and communicator, and what the world keeps afterwards must follow
// the handful of operations in flight, not the thousands of keys used.
func TestMatchIndexRetention(t *testing.T) {
	const (
		reps        = 20
		perRankMax  = 6 << 10
		settledFrom = 2 // rep 3: pools and bucket arrays are warm
	)
	w := newToyWorld(t, 8, 2, 4, 64)
	np := len(w.procs)
	peakPosted, peakUnexp := make([]int, np), make([]int, np)
	ring := func(p *Proc, c *Comm, base int) {
		me := c.Rank(p)
		left, right := (me+np-1)%np, (me+1)%np
		// One buffer pair per ring: the sockets' cache-residency trackers
		// keep an entry per buffer identity, which is not under test here.
		in, out := buffer.NewPhantom(4), buffer.NewPhantom(4)
		for step := 0; step < np-1; step++ {
			r := p.Irecv(c, in, left, base+step)
			peakPosted[p.rank] = max(peakPosted[p.rank], p.posted.count)
			s := p.Isend(c, out, right, base+step)
			to := c.Proc(right)
			peakUnexp[to.rank] = max(peakUnexp[to.rank], to.unexpected.count)
			p.WaitAll(r, s)
		}
	}
	held := make([]int64, reps)
	for rep := range held {
		err := w.Run(func(p *Proc) {
			c := w.WorldComm()
			ring(p, c, 1000*rep)
			for i := 1; i <= 2; i++ {
				ring(p, c.Split(p, 0, p.Rank()), 1000*rep+100*i)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Reset()
		held[rep] = liveHeap()
	}
	for _, p := range w.procs {
		checkEmpty(t, &p.posted, &p.unexpected)
		checkBounded(t, p.name+" posted", len(p.posted.buckets), peakPosted[p.rank])
		checkBounded(t, p.name+" unexpected", len(p.unexpected.buckets), peakUnexp[p.rank])
	}
	runtime.KeepAlive(w)
	w = nil
	without := liveHeap()
	for rep := range held {
		held[rep] -= without
	}
	if perRank := held[reps-1] / int64(np); perRank > perRankMax {
		t.Errorf("the world holds %d B per rank after %d reps, want at most %d", perRank, reps, perRankMax)
	}
	for rep := settledFrom + 1; rep < reps; rep++ {
		if d := float64(held[rep]-held[settledFrom]) / float64(held[settledFrom]); d > 0.10 || d < -0.10 {
			t.Errorf("held heap moved %+.1f%% between rep %d and rep %d (%d B -> %d B): retention follows key history",
				100*d, settledFrom+1, rep+1, held[settledFrom], held[rep])
		}
	}
}

// BenchmarkMatchFanIn is the matching work of a 191-sender, 8-round fan-in
// into one rank, with nothing else of a message around it: every receive
// preposted and then matched by its send, then every send unexpected and
// matched by its receive. Records are reused across iterations, as the
// per-rank pools reuse them.
func BenchmarkMatchFanIn(b *testing.B) {
	const senders, rounds = 191, 8
	var posted postIndex
	var unexp envIndex
	pos := make([]posting, senders*rounds)
	envs := make([]envelope, senders*rounds)
	for round := 0; round < rounds; round++ {
		for src := 1; src <= senders; src++ {
			i := round*senders + src - 1
			pos[i].srcWorld, pos[i].tag = src, round
			envs[i].srcWorld, envs[i].tag = src, round
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pos {
			posted.add(&pos[j])
		}
		for j := range envs {
			if posted.match(&envs[j]) != &pos[j] {
				b.Fatal("preposted receive matched out of order")
			}
		}
		for j := range envs {
			unexp.add(&envs[j])
		}
		for j := range pos {
			if unexp.match(&pos[j]) != &envs[j] {
				b.Fatal("unexpected send matched out of order")
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	msgs := float64(b.N * 2 * senders * rounds)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/msgs, "allocs/msg")
}
