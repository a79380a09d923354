package mpi

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/topology"
)

// toy spec with round numbers for exact timing arithmetic:
// shm latency 0.5s, net latency 1s, core copy 40 B/s, mem bus 100 B/s,
// NIC 10 B/s half duplex, eager threshold 8 bytes.
func toySpec(nodes, sockets, cores int) topology.Spec {
	return topology.Spec{
		Name:              "toy",
		Nodes:             nodes,
		SocketsPerNode:    sockets,
		CoresPerSocket:    cores,
		MemBandwidth:      100,
		CoreCopyBandwidth: 40,
		L3Bandwidth:       80,
		L3Size:            1 << 20,
		ShmLatency:        0.5,
		NetBandwidth:      10,
		NetLatency:        1,
		NetFullDuplex:     false,
		EagerThreshold:    8,
	}
}

func toyConf() Config {
	return Config{SendOverhead: 0.25}
}

func newToyWorld(t *testing.T, nodes, sockets, cores, np int) *World {
	t.Helper()
	m, err := topology.Build(toySpec(nodes, sockets, cores))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByCoreBinding(m, np)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(m, b, toyConf())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// ByCoreBinding re-exports topology.ByCore for test brevity.
func ByCoreBinding(m *topology.Machine, np int) (*topology.Binding, error) {
	return topology.ByCore(m, np)
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestIntraNodeEagerDeliversData(t *testing.T) {
	w := newToyWorld(t, 1, 1, 2, 2)
	var got []byte
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			p.Send(c, buffer.NewReal([]byte{1, 2, 3}), 1, 7)
		} else {
			dst := buffer.NewReal(make([]byte, 3))
			p.Recv(c, dst, 0, 7)
			got = append([]byte(nil), dst.Data()...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("got %v", got)
	}
}

func TestIntraNodeRendezvousDeliversData(t *testing.T) {
	w := newToyWorld(t, 1, 1, 2, 2)
	payload := make([]byte, 100) // >= threshold 8
	for i := range payload {
		payload[i] = byte(i)
	}
	var got []byte
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			p.Send(c, buffer.NewReal(payload), 1, 0)
		} else {
			dst := buffer.NewReal(make([]byte, 100))
			p.Recv(c, dst, 0, 0)
			got = append([]byte(nil), dst.Data()...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("rendezvous payload corrupted")
	}
}

func TestInterNodeTransferTiming(t *testing.T) {
	w := newToyWorld(t, 2, 1, 1, 2)
	var recvDone float64
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			p.Send(c, buffer.NewPhantom(100), 1, 0)
		} else {
			p.Recv(c, buffer.NewPhantom(100), 0, 0)
			recvDone = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// rendezvous with a preposted receive: sender overhead 0.25 +
	// latency 1 + 100 bytes at NIC 10 B/s = 10 -> 11.25 (no handshake
	// round trip, the RTS finds the posted match).
	if !almost(recvDone, 11.25) {
		t.Fatalf("recv completed at %g, want 11.25", recvDone)
	}
}

func TestInterNodeEagerBuffersSender(t *testing.T) {
	w := newToyWorld(t, 2, 1, 1, 2)
	var sendDone, recvDone float64
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			p.Send(c, buffer.NewPhantom(5), 1, 0) // < threshold: eager
			sendDone = p.Now()
		} else {
			p.Compute(100) // receiver arrives very late
			p.Recv(c, buffer.NewPhantom(5), 0, 0)
			recvDone = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sendDone, 0.25) {
		t.Fatalf("eager send completed at %g, want 0.25 (buffered)", sendDone)
	}
	// Payload arrived long before the recv; late recv pays no flight time.
	if !almost(recvDone, 100) {
		t.Fatalf("late recv completed at %g, want 100", recvDone)
	}
}

func TestUnexpectedMessageMatchedLater(t *testing.T) {
	w := newToyWorld(t, 1, 1, 2, 2)
	var got byte
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			p.Send(c, buffer.NewReal([]byte{42}), 1, 3)
		} else {
			p.Compute(10)
			dst := buffer.NewReal(make([]byte, 1))
			p.Recv(c, dst, 0, 3)
			got = dst.Data()[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d", got)
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	w := newToyWorld(t, 1, 1, 3, 3)
	var first, second byte
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		switch p.Rank() {
		case 0:
			p.Send(c, buffer.NewReal([]byte{10}), 2, 1)
		case 1:
			p.Send(c, buffer.NewReal([]byte{20}), 2, 2)
		case 2:
			b2 := buffer.NewReal(make([]byte, 1))
			p.Recv(c, b2, 1, 2) // match on (src=1, tag=2) first
			first = b2.Data()[0]
			b1 := buffer.NewReal(make([]byte, 1))
			p.Recv(c, b1, AnySource, AnyTag)
			second = b1.Data()[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 20 || second != 10 {
		t.Fatalf("first=%d second=%d, want 20, 10", first, second)
	}
}

func TestMessageOrderingSameSourceTag(t *testing.T) {
	w := newToyWorld(t, 1, 1, 2, 2)
	var got []byte
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			for i := byte(1); i <= 3; i++ {
				p.Send(c, buffer.NewReal([]byte{i}), 1, 0)
			}
		} else {
			for i := 0; i < 3; i++ {
				dst := buffer.NewReal(make([]byte, 1))
				p.Recv(c, dst, 0, 0)
				got = append(got, dst.Data()[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("order = %v, want [1 2 3] (MPI non-overtaking)", got)
	}
}

func TestSendRecvNoDeadlock(t *testing.T) {
	w := newToyWorld(t, 2, 1, 1, 2)
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		other := 1 - p.Rank()
		sb := buffer.NewPhantom(50)
		rb := buffer.NewPhantom(50)
		p.SendRecv(c, sb, other, 0, rb, other, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntraNodeBarrierCost(t *testing.T) {
	w := newToyWorld(t, 1, 1, 4, 4)
	var end float64
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		c.Barrier(p)
		end = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	// shared-memory barrier: one shm latency per proc, concurrent -> 0.5
	if !almost(end, 0.5) {
		t.Fatalf("barrier exit at %g, want 0.5", end)
	}
}

func TestInterNodeBarrierSynchronizes(t *testing.T) {
	w := newToyWorld(t, 4, 1, 1, 4)
	var minExit = math.Inf(1)
	var slowest float64
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		delay := float64(p.Rank()) * 3
		p.Compute(delay)
		if delay > slowest {
			slowest = delay
		}
		c.Barrier(p)
		if p.Now() < minExit {
			minExit = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if minExit < slowest {
		t.Fatalf("a rank left the barrier at %g before the slowest entered at %g", minExit, slowest)
	}
}

func TestSplitByNodeBuildsSubComms(t *testing.T) {
	w := newToyWorld(t, 2, 1, 2, 4) // ranks 0,1 node0; 2,3 node1
	type result struct{ size, rank, span int }
	results := make([]result, 4)
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		sub := c.Split(p, p.Core().NodeID, p.Rank())
		results[p.Rank()] = result{sub.Size(), sub.Rank(p), sub.NodeSpan()}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, res := range results {
		if res.size != 2 || res.span != 1 {
			t.Fatalf("rank %d: %+v", r, res)
		}
		if res.rank != r%2 {
			t.Fatalf("rank %d got sub-rank %d, want %d", r, res.rank, r%2)
		}
	}
}

func TestSplitUndefinedExcluded(t *testing.T) {
	w := newToyWorld(t, 1, 1, 3, 3)
	var nilCount, memberCount int
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		color := 0
		if p.Rank() == 1 {
			color = Undefined
		}
		sub := c.Split(p, color, p.Rank())
		if sub == nil {
			nilCount++
		} else {
			memberCount = sub.Size()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if nilCount != 1 || memberCount != 2 {
		t.Fatalf("nil=%d size=%d, want 1, 2", nilCount, memberCount)
	}
}

func TestSplitKeyOrdersRanks(t *testing.T) {
	w := newToyWorld(t, 1, 1, 3, 3)
	ranks := make([]int, 3)
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		// reverse order keys: world rank 2 -> key 0 etc.
		sub := c.Split(p, 0, 2-p.Rank())
		ranks[p.Rank()] = sub.Rank(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if ranks[0] != 2 || ranks[1] != 1 || ranks[2] != 0 {
		t.Fatalf("sub ranks = %v, want [2 1 0]", ranks)
	}
}

func TestReduceLocalComputesAndCharges(t *testing.T) {
	w := newToyWorld(t, 1, 1, 2, 2)
	var end float64
	var got []int64
	err := w.Run(func(p *Proc) {
		if p.Rank() != 0 {
			return
		}
		dst := buffer.Int64s([]int64{1, 2})
		src := buffer.Int64s([]int64{10, 20})
		p.ReduceLocal(buffer.OpSum, buffer.Int64, dst, src)
		got = buffer.AsInt64s(dst)
		end = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 11 || got[1] != 22 {
		t.Fatalf("reduce = %v", got)
	}
	// 16 bytes; rate = min(reduce bw 40, bus 100 / 3 streams) = 33.33 B/s
	if !almost(end, 0.48) {
		t.Fatalf("reduce finished at %g, want 0.48", end)
	}
}

func TestWaitAllMultipleRequests(t *testing.T) {
	w := newToyWorld(t, 1, 1, 4, 4)
	var sum int
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			var reqs []*Request
			bufs := make([]*buffer.Buffer, 3)
			for i := 1; i < 4; i++ {
				bufs[i-1] = buffer.NewReal(make([]byte, 1))
				reqs = append(reqs, p.Irecv(c, bufs[i-1], i, 0))
			}
			p.WaitAll(reqs...)
			for _, b := range bufs {
				sum += int(b.Data()[0])
			}
		} else {
			p.Compute(float64(p.Rank()))
			p.Send(c, buffer.NewReal([]byte{byte(p.Rank())}), 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 6 {
		t.Fatalf("sum = %d, want 6", sum)
	}
}

func TestHalfDuplexNICSharesBandwidth(t *testing.T) {
	// Two simultaneous opposite-direction transfers between two nodes on a
	// half-duplex NIC take twice as long as one.
	w := newToyWorld(t, 2, 1, 1, 2)
	var end float64
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		other := 1 - p.Rank()
		rb := buffer.NewPhantom(100)
		sb := buffer.NewPhantom(100)
		p.SendRecv(c, sb, other, 0, rb, other, 0)
		end = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	// each direction crosses both NICs (tx + rx on the same half-duplex
	// resource): each NIC carries 2 flows -> 5 B/s each -> 20 s + 1.25
	// (preposted receives skip the handshake)
	if !almost(end, 21.25) {
		t.Fatalf("duplex exchange finished at %g, want 21.25", end)
	}
}

func TestFullDuplexNICDoublesThroughput(t *testing.T) {
	spec := toySpec(2, 1, 1)
	spec.NetFullDuplex = true
	m, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := topology.ByCore(m, 2)
	w, err := NewWorld(m, b, toyConf())
	if err != nil {
		t.Fatal(err)
	}
	var end float64
	err = w.Run(func(p *Proc) {
		c := w.WorldComm()
		other := 1 - p.Rank()
		p.SendRecv(c, buffer.NewPhantom(100), other, 0, buffer.NewPhantom(100), other, 0)
		end = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	// full duplex: each direction gets its own 10 B/s -> 10 s + 1.25
	if !almost(end, 11.25) {
		t.Fatalf("duplex exchange finished at %g, want 11.25", end)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		w := newToyWorld(t, 2, 2, 2, 8)
		err := w.Run(func(p *Proc) {
			c := w.WorldComm()
			next := (p.Rank() + 1) % c.Size()
			prev := (p.Rank() + c.Size() - 1) % c.Size()
			for i := 0; i < 3; i++ {
				p.SendRecv(c, buffer.NewPhantom(64), next, i, buffer.NewPhantom(64), prev, i)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Now()
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d finished at %g, first at %g", i, got, first)
		}
	}
}

func TestCrossBytesAccounting(t *testing.T) {
	w := newToyWorld(t, 2, 1, 2, 4)
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			p.Send(c, buffer.NewPhantom(100), 1, 0) // intra-node
			p.Send(c, buffer.NewPhantom(100), 2, 0) // inter-node
		} else if p.Rank() <= 2 {
			p.Recv(c, buffer.NewPhantom(100), 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.BytesCross != 100 {
		t.Fatalf("BytesCross = %d, want 100", w.BytesCross)
	}
}

func TestManyRanksPipelineStress(t *testing.T) {
	// 2 nodes x 8 ranks relay segments down a chain; checks no deadlock
	// and payload integrity through mixed intra/inter-node hops.
	w := newToyWorld(t, 2, 2, 4, 16)
	const segs = 5
	var final []byte
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		n := c.Size()
		me := p.Rank()
		for s := 0; s < segs; s++ {
			b := buffer.NewReal(make([]byte, 4))
			if me == 0 {
				copy(b.Data(), []byte{byte(s), 1, 2, 3})
			} else {
				p.Recv(c, b, me-1, s)
			}
			if me < n-1 {
				p.Send(c, b, me+1, s)
			} else if s == segs-1 {
				final = append([]byte(nil), b.Data()...)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final, []byte{segs - 1, 1, 2, 3}) {
		t.Fatalf("final = %v", final)
	}
}

func TestRunTwicePhasesAccumulateTime(t *testing.T) {
	w := newToyWorld(t, 1, 1, 2, 2)
	body := func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			p.Send(c, buffer.NewPhantom(4), 1, 0)
		} else {
			p.Recv(c, buffer.NewPhantom(4), 0, 0)
		}
	}
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	t1 := w.Now()
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	if w.Now() <= t1 {
		t.Fatalf("second phase did not advance time: %g then %g", t1, w.Now())
	}
}

func TestMismatchedSizePanics(t *testing.T) {
	w := newToyWorld(t, 1, 1, 2, 2)
	panicked := false
	// The panic fires on the receiving rank's goroutine; recover there.
	// The sender is then stuck forever, which Run reports as a deadlock.
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			p.Send(c, buffer.NewPhantom(10), 1, 0)
			return
		}
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Recv(c, buffer.NewPhantom(20), 0, 0)
	})
	if !panicked {
		t.Fatal("mismatched sizes did not panic")
	}
	if err == nil {
		t.Fatal("expected deadlock error for the orphaned sender")
	}
}

func TestNonMemberRankPanics(t *testing.T) {
	w := newToyWorld(t, 1, 1, 4, 4)
	caught := 0
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		sub := c.Split(p, p.Rank()%2, p.Rank())
		if p.Rank()%2 == 0 {
			return
		}
		func() {
			defer func() {
				if recover() != nil {
					caught++
				}
			}()
			// sub contains odd ranks only; asking for even rank's comm
			// rank must panic.
			_ = sub.Rank(w.Proc(0))
		}()
	})
	if err != nil {
		t.Fatal(err)
	}
	if caught != 2 {
		t.Fatalf("caught = %d, want 2", caught)
	}
}

func TestSegmentBounds(t *testing.T) {
	cases := []struct {
		total, seg, i, off, n int64
	}{
		{100, 30, 0, 0, 30},
		{100, 30, 3, 90, 10},
		{100, 30, 4, 100, 0},
		{100, 100, 0, 0, 100},
		{5, 10, 0, 0, 5},
	}
	for _, c := range cases {
		off, n := SegmentBounds(c.total, c.seg, c.i)
		if off != c.off || n != c.n {
			t.Errorf("SegmentBounds(%d,%d,%d) = (%d,%d), want (%d,%d)",
				c.total, c.seg, c.i, off, n, c.off, c.n)
		}
	}
	if CeilDiv(100, 30) != 4 || CeilDiv(90, 30) != 3 {
		t.Error("CeilDiv wrong")
	}
}

func TestIsendOverheadSerializesAtSender(t *testing.T) {
	// A leader posting k inter-node Isends pays k*SendOverhead before the
	// last is injected — the per-message CPU cost the paper's pipelining
	// must amortize.
	w := newToyWorld(t, 3, 1, 1, 3)
	var lastInjected float64
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			r1 := p.Isend(c, buffer.NewPhantom(4), 1, 0)
			r2 := p.Isend(c, buffer.NewPhantom(4), 2, 0)
			lastInjected = p.Now()
			p.WaitAll(r1, r2)
		} else {
			p.Recv(c, buffer.NewPhantom(4), 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(lastInjected, 0.5) {
		t.Fatalf("two Isends injected by %g, want 0.5 (2 x 0.25 overhead)", lastInjected)
	}
}

func TestWorldValidatesBinding(t *testing.T) {
	m, _ := topology.Build(toySpec(1, 1, 2))
	bad := topology.Custom("dup", []int{0, 0})
	if _, err := NewWorld(m, bad, Config{}); err == nil {
		t.Fatal("NewWorld accepted invalid binding")
	}
}

func TestBigFanInDoesNotDeadlock(t *testing.T) {
	w := newToyWorld(t, 4, 2, 4, 32)
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			for i := 1; i < c.Size(); i++ {
				p.Recv(c, buffer.NewPhantom(16), AnySource, 0)
			}
		} else {
			p.Send(c, buffer.NewPhantom(16), 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Now() <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestCommProcAndWorldRank(t *testing.T) {
	w := newToyWorld(t, 2, 1, 2, 4)
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		sub := c.Split(p, p.Core().NodeID, p.Rank())
		for i := 0; i < sub.Size(); i++ {
			wp := sub.Proc(i)
			if sub.Rank(wp) != i {
				t.Errorf("round trip rank %d failed", i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func ExampleWorld() {
	m, _ := topology.Build(topology.Spec{
		Name: "example", Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 2,
		MemBandwidth: 10e9, CoreCopyBandwidth: 3e9, NetBandwidth: 125e6,
		NetLatency: 50e-6, ShmLatency: 1e-6, EagerThreshold: 4096,
	})
	b, _ := topology.ByCore(m, 4)
	w, _ := NewWorld(m, b, Config{})
	_ = w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			p.Send(c, buffer.NewReal([]byte("hi")), 3, 0)
		}
		if p.Rank() == 3 {
			msg := buffer.NewReal(make([]byte, 2))
			p.Recv(c, msg, 0, 0)
			fmt.Printf("rank 3 got %q\n", msg.Data())
		}
	})
	// Output: rank 3 got "hi"
}
