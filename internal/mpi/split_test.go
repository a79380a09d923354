package mpi

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"hierknem/internal/topology"
)

// Comm.Split runs SplitStep as one stepped wait, and SplitLeadersStep runs
// a charge and two splits as one. This file keeps Split as it was written
// before, process-style — the last arriver builds the result, every other
// member parks on its own coroutine until it has — as the reference both
// must reproduce event for event.

// processSplit is Comm.Split, process-style.
func processSplit(c *Comm, p *Proc, color, key int) *Comm {
	me := c.Rank(p)
	if c.splitOp == nil {
		c.splitOp = &splitState{
			entries: make([]splitEntry, c.Size()),
			waiters: make([]*Proc, 0, c.Size()-1),
		}
	}
	op := c.splitOp
	op.entries[me] = splitEntry{color, key, me}
	if len(op.waiters) < c.Size()-1 {
		op.waiters = append(op.waiters, p)
		for op.result == nil {
			p.dp.Park()
		}
		return op.result[me]
	}
	es := op.entries
	slices.SortFunc(es, func(a, b splitEntry) int {
		if a.color != b.color {
			return cmp.Compare(a.color, b.color)
		}
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return cmp.Compare(a.rank, b.rank)
	})
	result := make([]*Comm, len(es))
	for lo, hi := 0, 0; lo < len(es); lo = hi {
		for hi = lo + 1; hi < len(es) && es[hi].color == es[lo].color; hi++ {
		}
		if es[lo].color == Undefined {
			continue
		}
		worldRanks := make([]int, hi-lo)
		for i, e := range es[lo:hi] {
			worldRanks[i] = c.ranks[e.rank]
		}
		sub := c.world.newComm(worldRanks)
		for _, e := range es[lo:hi] {
			result[e.rank] = sub
		}
	}
	op.result = result
	c.splitOp = nil
	for _, w := range op.waiters {
		w.dp.Wake()
	}
	return result[me]
}

// processSplitLeaders is SplitLeadersStep, process-style: the charge, then
// the two splits.
func processSplitLeaders(c *Comm, p *Proc, d float64, color, key, lkey int) (sub, leaders *Comm) {
	if d != 0 {
		p.dp.Sleep(d)
	}
	sub = processSplit(c, p, color, key)
	lcolor := Undefined
	if sub != nil && sub.Rank(p) == 0 {
		lcolor = 0
	}
	return sub, processSplit(c, p, lcolor, lkey)
}

// splitWorld builds a world of np ranks on nodes nodes of two 2-core
// sockets, bound by binding: "bycore", "bynode" (round robin) or "ppnK"
// (K ranks per node, the last node ragged when K does not divide np).
func splitWorld(t *testing.T, binding string, nodes, np int) *World {
	t.Helper()
	m, err := topology.Build(toySpec(nodes, 2, 2))
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
	w, err := NewWorld(m, b, toyConf())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// splits is one implementation of the two splits.
type splits struct {
	split   func(c *Comm, p *Proc, color, key int) *Comm
	leaders func(c *Comm, p *Proc, d float64, color, key, lkey int) (sub, leaders *Comm)
}

func steppedSplits() splits {
	return splits{
		split: (*Comm).Split,
		leaders: func(c *Comm, p *Proc, d float64, color, key, lkey int) (*Comm, *Comm) {
			p.dp.Steps(c.SplitLeadersStep(p, d, color, key, lkey))
			return p.SplitResult()
		},
	}
}

func processSplits() splits { return splits{split: processSplit, leaders: processSplitLeaders} }

// splitOutcome is what one run of splitProgram observed.
type splitOutcome struct {
	log      string // per rank: each split's members, context id and return time
	order    string // the order ranks returned from each split
	end      string // the run's end time, in hex
	events   uint64
	handoffs uint64
}

// describe is c as the program logs it: its world ranks in comm-rank order
// and its context id.
func describe(c *Comm) string {
	if c == nil {
		return "nil"
	}
	return fmt.Sprintf("%v@%d", c.ranks, c.ctx)
}

// splitProgram has every rank of w arrive at four lone splits and two
// leader splits of the world communicator, one split of a sub-communicator
// among them, each after a rank-dependent compute delay. The colors
// include Undefined, and the keys are tied, reversed and mixed.
func splitProgram(t *testing.T, w *World, impl splits) splitOutcome {
	t.Helper()
	np := w.Size()
	logs := make([][]string, np)
	var order []string
	err := w.Run(func(p *Proc) {
		world := w.WorldComm()
		r := p.Rank()
		mark := func(what string, c ...*Comm) {
			var ds []string
			for _, x := range c {
				ds = append(ds, describe(x))
			}
			logs[r] = append(logs[r], fmt.Sprintf("%s %s %x", what, strings.Join(ds, " "), math.Float64bits(p.Now())))
			order = append(order, fmt.Sprintf("%s:%d", what, r))
		}
		lone := []struct {
			name       string
			color, key int
		}{
			{"tied", r % 3, 0},
			{"reversed", r % 2, np - r},
			{"undefined", map[bool]int{true: Undefined, false: r % 2}[r%3 == 1], r},
			{"mixed", (r * 5) % 4, (r * 7) % 3},
		}
		var half *Comm
		for i, s := range lone {
			p.Compute(float64((r*3+i)%4) * 0.25)
			c := impl.split(world, p, s.color, s.key)
			mark(s.name, c)
			if i == 1 {
				half = c
			}
		}
		p.Compute(float64(r%3) * 0.5)
		mark("sub", impl.split(half, p, half.Rank(p)%2, -half.Rank(p)))
		node := p.core.NodeID
		for i, d := range []float64{0, 0.75} {
			key := r + 1
			if r == i*(np/2) {
				key = 0 // the root, forced to the front of its node
			}
			p.Compute(float64((r+i)%3) * 0.25)
			sub, leaders := impl.leaders(world, p, d, node, key, node)
			mark(fmt.Sprintf("leaders%d", i), sub, leaders)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for r, l := range logs {
		fmt.Fprintf(&b, "rank %d: %s\n", r, strings.Join(l, "; "))
	}
	e := w.Machine.Eng
	return splitOutcome{log: b.String(), order: strings.Join(order, " "), end: fmt.Sprintf("%x", math.Float64bits(w.Now())),
		events: e.Processed(), handoffs: e.Handoffs()}
}

// TestSteppedSplitMatchesProcessStyle runs splitProgram with the shipped
// stepped splits and with the process-style reference on fresh, identical
// worlds of 1-9 ranks bound by core, round robin, three ranks per node
// (ragged) and one rank per node. Members and their order, context ids
// (minted in ascending color order), the order ranks return in, every
// return time and the end time to the bit and the event count must match.
// A rank is switched into once to start it, once after each compute delay
// and at most once per split or leader split, charge included.
func TestSteppedSplitMatchesProcessStyle(t *testing.T) {
	for _, wd := range []struct {
		binding string
		nodes   int
	}{{"bycore", 3}, {"bynode", 3}, {"ppn3", 3}, {"ppn1", 9}} {
		for np := 1; np <= 9; np++ {
			name := fmt.Sprintf("%s/np%d", wd.binding, np)
			got := splitProgram(t, splitWorld(t, wd.binding, wd.nodes, np), steppedSplits())
			ref := splitProgram(t, splitWorld(t, wd.binding, wd.nodes, np), processSplits())
			if got.log != ref.log {
				t.Errorf("%s: stepped log\n%s\nprocess-style log\n%s", name, got.log, ref.log)
			}
			if got.order != ref.order {
				t.Errorf("%s: ranks return in the order\n%s\nstepped, and\n%s\nprocess-style", name, got.order, ref.order)
			}
			if got.end != ref.end || got.events != ref.events {
				t.Errorf("%s: stepped ends at %s after %d events, process-style at %s after %d",
					name, got.end, got.events, ref.end, ref.events)
			}
			const computes, splitCalls = 7, 7 // five lone splits, two leader splits
			if want := uint64(np * (1 + computes + splitCalls)); got.handoffs > want {
				t.Errorf("%s: %d hand-offs stepped (%d process-style), want at most %d", name, got.handoffs, ref.handoffs, want)
			}
		}
	}
}

// TestSplitTimingRule pins what a split costs: no virtual time, and no
// member returns before the last one has arrived. Ranks arrive 0.25 apart;
// each returns at the last arrival's time exactly, and SplitLeadersStep's
// two splits add only its charge.
func TestSplitTimingRule(t *testing.T) {
	const np = 6
	w := splitWorld(t, "bycore", 2, np)
	last := float64(np-1) * 0.25
	err := w.Run(func(p *Proc) {
		world := w.WorldComm()
		r := p.Rank()
		p.Compute(float64(r) * 0.25)
		world.Split(p, r%2, r)
		if p.Now() != last {
			t.Errorf("rank %d: Split returned at %g, want %g, the last arrival", r, p.Now(), last)
		}
		p.Compute(float64(np-1-r) * 0.25)
		p.dp.Steps(world.SplitLeadersStep(p, 0.5, p.core.NodeID, r, p.core.NodeID))
		p.SplitResult()
		if want := 2*last + 0.5; p.Now() != want {
			t.Errorf("rank %d: SplitLeadersStep returned at %g, want %g", r, p.Now(), want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
