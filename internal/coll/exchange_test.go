package coll

import (
	"bytes"
	"fmt"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/mpi"
	"hierknem/internal/topology"
)

// The process-style exchange loops, as they were written before they ran
// as one stepped wait (exchange): every Isend, Wait and ReduceLocal on the
// rank, one coroutine switch per suspension. They are the references
// TestExchangeLoopsMatchProcessStyle holds the exchange to.

func refAllgatherRing(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer, order []int, postRecvFirst bool) {
	size := c.Size()
	me := c.Rank(p)
	block := sbuf.Len()
	rbuf.Slice(int64(me)*block, block).CopyFrom(sbuf)
	if size == 1 {
		return
	}
	ring := order
	if ring == nil {
		ring = make([]int, size)
		for i := range ring {
			ring[i] = i
		}
	}
	posOf := make([]int, size)
	for i, r := range ring {
		posOf[r] = i
	}
	pos := posOf[me]
	right := ring[(pos+1)%size]
	left := ring[(pos-1+size)%size]
	var serialPenalty float64
	if !postRecvFirst {
		myNode := p.Core().NodeID
		if c.Proc(right).Core().NodeID != myNode || c.Proc(left).Core().NodeID != myNode {
			serialPenalty = float64(block) / p.World().Machine.Spec.NetBandwidth
		}
	}
	for s := 0; s < size-1; s++ {
		sb := rbuf.Slice(int64(ring[(pos-s+size)%size])*block, block)
		rb := rbuf.Slice(int64(ring[(pos-s-1+2*size)%size])*block, block)
		r := p.Irecv(c, rb, left, collTag+s)
		sReq := p.Isend(c, sb, right, collTag+s)
		p.Wait(r)
		p.Wait(sReq)
		if serialPenalty > 0 {
			p.Compute(serialPenalty)
		}
	}
}

func refAllgatherRecursiveDoubling(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer) {
	size := c.Size()
	if size&(size-1) != 0 {
		refAllgatherRing(p, c, sbuf, rbuf, nil, true)
		return
	}
	me := c.Rank(p)
	block := sbuf.Len()
	rbuf.Slice(int64(me)*block, block).CopyFrom(sbuf)
	have := 1
	for mask := 1; mask < size; mask <<= 1 {
		peer := me ^ mask
		n := int64(have) * block
		r := p.Irecv(c, rbuf.Slice(int64(peer&^(mask-1))*block, n), peer, collTag+have)
		s := p.Isend(c, rbuf.Slice(int64(me&^(mask-1))*block, n), peer, collTag+have)
		p.Wait(r)
		p.Wait(s)
		have *= 2
	}
}

func refAllreduceRecursiveDoubling(p *mpi.Proc, c *mpi.Comm, a ReduceArgs, sbuf, rbuf *buffer.Buffer) {
	size := c.Size()
	me := c.Rank(p)
	rbuf.CopyFrom(sbuf)
	if size == 1 {
		return
	}
	if size&(size-1) != 0 {
		ReduceBinomial(p, c, a, sbuf, rbuf, 0, 0)
		BcastBinomial(p, c, rbuf, 0)
		return
	}
	tmp := Like(sbuf, sbuf.Len())
	for mask := 1; mask < size; mask <<= 1 {
		peer := me ^ mask
		r := p.Irecv(c, tmp, peer, collTag+23)
		s := p.Isend(c, rbuf, peer, collTag+23)
		p.Wait(r)
		p.Wait(s)
		p.ReduceLocal(a.Op, a.Dtype, rbuf, tmp)
	}
}

func refAllreduceRing(p *mpi.Proc, c *mpi.Comm, a ReduceArgs, sbuf, rbuf *buffer.Buffer, order []int) {
	size := c.Size()
	me := c.Rank(p)
	rbuf.CopyFrom(sbuf)
	if size == 1 {
		return
	}
	total := sbuf.Len()
	es := a.Dtype.Size()
	bounds := make([]int64, size+1)
	for i := 0; i <= size; i++ {
		bounds[i] = (total * int64(i) / int64(size)) / es * es
	}
	bounds[size] = total
	chunk := func(i int) (int64, int64) {
		i = ((i % size) + size) % size
		return bounds[i], bounds[i+1] - bounds[i]
	}
	ring := order
	if ring == nil {
		ring = make([]int, size)
		for i := range ring {
			ring[i] = i
		}
	}
	posOf := make([]int, size)
	for i, r := range ring {
		posOf[r] = i
	}
	pos := posOf[me]
	right := ring[(pos+1)%size]
	left := ring[(pos-1+size)%size]
	maxChunk := int64(0)
	for i := 0; i < size; i++ {
		if _, n := chunk(i); n > maxChunk {
			maxChunk = n
		}
	}
	tmp := Like(sbuf, maxChunk)
	for s := 0; s < size-1; s++ {
		sLo, sN := chunk(pos - s)
		rLo, rN := chunk(pos - s - 1)
		tseg := tmp.Slice(0, rN)
		r := p.Irecv(c, tseg, left, collTag+24+s)
		sr := p.Isend(c, rbuf.Slice(sLo, sN), right, collTag+24+s)
		p.Wait(r)
		p.Wait(sr)
		p.ReduceLocal(a.Op, a.Dtype, rbuf.Slice(rLo, rN), tseg)
	}
	for s := 0; s < size-1; s++ {
		sLo, sN := chunk(pos + 1 - s)
		rLo, rN := chunk(pos - s)
		r := p.Irecv(c, rbuf.Slice(rLo, rN), left, collTag+500+s)
		sr := p.Isend(c, rbuf.Slice(sLo, sN), right, collTag+500+s)
		p.Wait(r)
		p.Wait(sr)
	}
}

// exchangeLoop is one exchange loop in its stepped and its process-style
// form. reduce marks the Allreduces; pow2 a loop that runs the exchange
// only on a power-of-two communicator and falls back to process-style
// trees on any other.
type exchangeLoop struct {
	name         string
	reduce, pow2 bool
	run, ref     func(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer)
}

func exchangeLoops() []exchangeLoop {
	sum := ReduceArgs{Op: buffer.OpSum, Dtype: buffer.Int64}
	var loops []exchangeLoop
	for _, phys := range []bool{false, true} {
		order := func(c *mpi.Comm) []int {
			if phys {
				return c.PhysicalOrder()
			}
			return nil
		}
		name := map[bool]string{false: "nil-order", true: "physical-order"}[phys]
		for _, duplex := range []bool{true, false} {
			loops = append(loops, exchangeLoop{name: fmt.Sprintf("ring-allgather/%s/postRecvFirst=%v", name, duplex),
				run: func(p *mpi.Proc, c *mpi.Comm, s, r *buffer.Buffer) { AllgatherRing(p, c, s, r, order(c), duplex) },
				ref: func(p *mpi.Proc, c *mpi.Comm, s, r *buffer.Buffer) { refAllgatherRing(p, c, s, r, order(c), duplex) }})
		}
		loops = append(loops, exchangeLoop{name: "ring-allreduce/" + name, reduce: true,
			run: func(p *mpi.Proc, c *mpi.Comm, s, r *buffer.Buffer) { AllreduceRing(p, c, sum, s, r, order(c)) },
			ref: func(p *mpi.Proc, c *mpi.Comm, s, r *buffer.Buffer) { refAllreduceRing(p, c, sum, s, r, order(c)) }})
	}
	return append(loops,
		exchangeLoop{name: "doubling-allgather",
			run: func(p *mpi.Proc, c *mpi.Comm, s, r *buffer.Buffer) { AllgatherRecursiveDoubling(p, c, s, r) },
			ref: func(p *mpi.Proc, c *mpi.Comm, s, r *buffer.Buffer) { refAllgatherRecursiveDoubling(p, c, s, r) }},
		exchangeLoop{name: "doubling-allreduce", reduce: true, pow2: true,
			run: func(p *mpi.Proc, c *mpi.Comm, s, r *buffer.Buffer) { AllreduceRecursiveDoubling(p, c, sum, s, r) },
			ref: func(p *mpi.Proc, c *mpi.Comm, s, r *buffer.Buffer) { refAllreduceRecursiveDoubling(p, c, sum, s, r) }})
}

// exchangeWorld builds a world of np ranks on nodes nodes of two 2-core
// sockets, bound by binding: "bycore", "bynode" (round robin, so the
// physical order is not the rank order), or "ppnK" (K ranks per node, the
// last one ragged when K does not divide np). The eager threshold sits above the small-copy cutoff,
// so blocks of the three sizes the test uses take the three intra-node
// send paths: a plain sleep, an eager copy-in flow and a single-copy
// rendezvous.
func exchangeWorld(t *testing.T, binding string, nodes, np int) *mpi.World {
	t.Helper()
	m, err := topology.Build(topology.Spec{
		Name: "exchangetest", Nodes: nodes, SocketsPerNode: 2, CoresPerSocket: 2,
		MemBandwidth: 10e9, CoreCopyBandwidth: 3e9, L3Bandwidth: 6e9, L3Size: 12 << 20,
		ShmLatency: 1e-6, NetBandwidth: 1e9, NetLatency: 10e-6, NetFullDuplex: true,
		EagerThreshold: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b *topology.Binding
	switch binding {
	case "bycore":
		b, err = topology.ByCore(m, np)
	case "bynode":
		b, err = topology.ByNode(m, np)
	default:
		var ppn int
		fmt.Sscanf(binding, "ppn%d", &ppn)
		b, err = topology.ByCorePPN(m, np, ppn)
	}
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(m, b, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestExchangeLoopsMatchProcessStyle runs every exchange loop stepped and
// process-style on fresh, identical worlds of 1-9 ranks, power-of-two and
// not: by core, round robin, three ranks per node (ragged) and one rank per
// node; nil and physical ring orders; both ring personalities; real
// buffers of 40 B, 6 KB and 100 KB per rank. Both must leave every rank the
// bytes reference.go specifies, end at the same virtual time to the bit
// and process the same events; the stepped form must switch into each rank
// at most once beyond its start.
func TestExchangeLoopsMatchProcessStyle(t *testing.T) {
	worlds := []struct {
		binding string
		nodes   int
	}{{"bycore", 3}, {"bynode", 3}, {"ppn3", 3}, {"ppn1", 9}}
	sum := ReduceArgs{Op: buffer.OpSum, Dtype: buffer.Int64}
	type outcome struct {
		end              string
		events, handoffs uint64
		wrong            int
	}
	for _, wd := range worlds {
		for np := 1; np <= 9; np++ {
			for _, loop := range exchangeLoops() {
				for _, block := range []int{40, 6000, 100000} {
					inputs := make([][]byte, np)
					for r := range inputs {
						inputs[r] = pattern(r, block) // summed as int64s, wrapping
					}
					want := RefAllgather(inputs)
					if loop.reduce {
						want = RefReduce(sum, inputs)
					}
					play := func(run func(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer)) outcome {
						w := exchangeWorld(t, wd.binding, wd.nodes, np)
						var o outcome
						err := w.Run(func(p *mpi.Proc) {
							c := w.WorldComm()
							me := c.Rank(p)
							sbuf := buffer.NewReal(append([]byte(nil), inputs[me]...))
							rbuf := buffer.NewReal(make([]byte, len(want)))
							run(p, c, sbuf, rbuf)
							if !bytes.Equal(rbuf.Data(), want) {
								o.wrong++
							}
						})
						if err != nil {
							t.Fatal(err)
						}
						e := w.Machine.Eng
						o.end, o.events, o.handoffs = fmt.Sprintf("%x", w.Now()), e.Processed(), e.Handoffs()
						return o
					}
					name := fmt.Sprintf("%s/np%d/%s/%dB", wd.binding, np, loop.name, block)
					got, ref := play(loop.run), play(loop.ref)
					if got.wrong != 0 || ref.wrong != 0 {
						t.Errorf("%s: %d ranks stepped and %d process-style hold the wrong bytes", name, got.wrong, ref.wrong)
					}
					if got.end != ref.end || got.events != ref.events {
						t.Errorf("%s: stepped ends at %s after %d events, process-style at %s after %d",
							name, got.end, got.events, ref.end, ref.events)
					}
					// A rank is switched into once to start it and once
					// when its call's stepped wait is over.
					if (!loop.pow2 || np&(np-1) == 0) && got.handoffs > uint64(2*np) {
						t.Errorf("%s: %d hand-offs stepped (%d process-style), want at most %d",
							name, got.handoffs, ref.handoffs, 2*np)
					}
				}
			}
		}
	}
}
