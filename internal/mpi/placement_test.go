package mpi

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"hierknem/internal/topology"
)

// oracleSplitGroups is the map-and-sort.Slice body Comm.Split had before it
// was rewritten on slices, kept as the reference: given every comm rank's
// (color, key) it returns the new groups, as comm ranks of the parent, in
// the order Split mints their context ids.
func oracleSplitGroups(color, key []int) [][]int {
	type entry struct{ color, key int }
	entries := make(map[int]entry)
	for r := range color {
		entries[r] = entry{color[r], key[r]}
	}
	colors := make(map[int][]int) // color -> comm ranks
	for r, e := range entries {
		if e.color != Undefined {
			colors[e.color] = append(colors[e.color], r)
		}
	}
	sortedColors := make([]int, 0, len(colors))
	for col := range colors {
		sortedColors = append(sortedColors, col)
	}
	sort.Ints(sortedColors)
	var groups [][]int
	for _, col := range sortedColors {
		members := colors[col]
		sort.Slice(members, func(i, j int) bool {
			a, b := members[i], members[j]
			if entries[a].key != entries[b].key {
				return entries[a].key < entries[b].key
			}
			return a < b
		})
		groups = append(groups, members)
	}
	return groups
}

// checkSplit compares what every member of parent got from one Split with
// the oracle: member order, who got nil, and that the groups took
// consecutive context ids in oracle order.
func checkSplit(t *testing.T, parent *Comm, got []*Comm, color, key []int) {
	t.Helper()
	groups := oracleSplitGroups(color, key)
	inGroup := make([]bool, parent.Size())
	var first *Comm
	for gi, g := range groups {
		sub := got[g[0]]
		if sub == nil {
			t.Fatalf("group %d: comm rank %d got nil", gi, g[0])
		}
		if gi == 0 {
			first = sub
		}
		if sub.ctx != first.ctx+gi {
			t.Errorf("group %d: ctx %d, want %d (ids are minted in ascending color order)", gi, sub.ctx, first.ctx+gi)
		}
		want := make([]int, len(g))
		for i, r := range g {
			want[i] = parent.WorldRank(r)
			inGroup[r] = true
			if got[r] != sub {
				t.Errorf("group %d: comm rank %d holds a different communicator than rank %d", gi, r, g[0])
			}
		}
		if !slices.Equal(sub.ranks, want) {
			t.Errorf("group %d: members %v, want %v", gi, sub.ranks, want)
		}
	}
	for r, in := range inGroup {
		if !in && got[r] != nil {
			t.Errorf("comm rank %d passed Undefined but got a communicator", r)
		}
	}
}

func TestSplitMatchesOracle(t *testing.T) {
	cases := []struct {
		name       string
		np         int
		color, key func(r int) int
	}{
		{"several colors", 12, func(r int) int { return r % 3 }, func(r int) int { return r }},
		{"undefined mixed in", 12, func(r int) int {
			if r%4 == 1 {
				return Undefined
			}
			return r % 2
		}, func(r int) int { return -r }},
		{"negative colors around undefined", 12, func(r int) int {
			return [...]int{Undefined - 1, Undefined, Undefined + 1, -1, 0, 7}[r%6]
		}, func(r int) int { return r / 6 }},
		{"equal keys broken by rank", 9, func(r int) int { return r % 2 }, func(int) int { return 5 }},
		{"all undefined", 6, func(int) int { return Undefined }, func(r int) int { return r }},
		{"single color reversed", 8, func(int) int { return 3 }, func(r int) int { return 100 - r }},
		{"size one", 1, func(int) int { return 0 }, func(int) int { return 0 }},
		{"size one undefined", 1, func(int) int { return Undefined }, func(int) int { return 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newToyWorld(t, 3, 1, 4, tc.np)
			c := w.WorldComm()
			color, key := make([]int, tc.np), make([]int, tc.np)
			for r := range color {
				color[r], key[r] = tc.color(r), tc.key(r)
			}
			base := w.nextCtx
			got := make([]*Comm, tc.np)
			err := w.Run(func(p *Proc) {
				me := c.Rank(p)
				// Arrive out of rank order: the result must not depend on it.
				p.Compute(float64((me*5)%tc.np) * 1e-6)
				got[me] = c.Split(p, color[me], key[me])
			})
			if err != nil {
				t.Fatal(err)
			}
			checkSplit(t, c, got, color, key)
			groups := oracleSplitGroups(color, key)
			if len(groups) > 0 && got[groups[0][0]].ctx != base {
				t.Errorf("first new ctx %d, want %d", got[groups[0][0]].ctx, base)
			}
			if w.nextCtx != base+len(groups) {
				t.Errorf("Split consumed %d context ids, want %d (Undefined takes none)", w.nextCtx-base, len(groups))
			}
		})
	}
}

func TestSplitNested(t *testing.T) {
	const np = 12
	w := newToyWorld(t, 3, 1, 4, np)
	c := w.WorldComm()
	outerColor, outerKey := make([]int, np), make([]int, np)
	for r := 0; r < np; r++ {
		outerColor[r], outerKey[r] = r%2, np-r // two halves, each in descending rank order
	}
	outer, inner := make([]*Comm, np), make([]*Comm, np)
	innerColor, innerKey := make([]int, np), make([]int, np)
	err := w.Run(func(p *Proc) {
		me := c.Rank(p)
		sub := c.Split(p, outerColor[me], outerKey[me])
		outer[me] = sub
		sr := sub.Rank(p)
		innerColor[me], innerKey[me] = sr/2, -sr
		if sr == 3 {
			innerColor[me] = Undefined
		}
		inner[me] = sub.Split(p, innerColor[me], innerKey[me])
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSplit(t, c, outer, outerColor, outerKey)
	for _, sub := range []*Comm{outer[0], outer[1]} {
		got, color, key := make([]*Comm, sub.Size()), make([]int, sub.Size()), make([]int, sub.Size())
		for sr, wr := range sub.ranks {
			got[sr], color[sr], key[sr] = inner[wr], innerColor[wr], innerKey[wr]
		}
		checkSplit(t, sub, got, color, key)
	}
}

// The brute-force definitions the placement index must agree with: the
// per-call scans hier.Build, core and modules ran before the index existed.

func bruteNodes(c *Comm) []int {
	var ids []int
	for r := 0; r < c.Size(); r++ {
		if n := c.Proc(r).Core().NodeID; !slices.Contains(ids, n) {
			ids = append(ids, n)
		}
	}
	sort.Ints(ids)
	return ids
}

func bruteMaxPPN(c *Comm) int {
	counts := map[int]int{}
	most := 0
	for r := 0; r < c.Size(); r++ {
		n := c.Proc(r).Core().NodeID
		counts[n]++
		most = max(most, counts[n])
	}
	return most
}

func bruteUniformBlocks(c *Comm) bool {
	lastNode := -1
	runLen, firstLen := 0, -1
	flush := func() bool {
		if runLen == 0 {
			return true
		}
		if firstLen == -1 {
			firstLen = runLen
		}
		return runLen == firstLen
	}
	for r := 0; r < c.Size(); r++ {
		n := c.Proc(r).Core().NodeID
		if n != lastNode {
			if n < lastNode || !flush() {
				return false
			}
			lastNode = n
			runLen = 0
		}
		runLen++
	}
	return flush()
}

func brutePhysicalOrder(c *Comm) []int {
	order := make([]int, c.Size())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := c.Proc(order[i]).Core(), c.Proc(order[j]).Core()
		if a.NodeID != b.NodeID {
			return a.NodeID < b.NodeID
		}
		if a.Socket.ID != b.Socket.ID {
			return a.Socket.ID < b.Socket.ID
		}
		return a.Local < b.Local
	})
	return order
}

func checkPlacement(t *testing.T, c *Comm, wantUniform bool) {
	t.Helper()
	nodes := bruteNodes(c)
	if c.NodeSpan() != len(nodes) {
		t.Errorf("NodeSpan = %d, want %d", c.NodeSpan(), len(nodes))
	}
	if c.IntraNode() != (len(nodes) <= 1) {
		t.Errorf("IntraNode = %v with %d nodes", c.IntraNode(), len(nodes))
	}
	for r := 0; r < c.Size(); r++ {
		if got, want := c.NodeIndex(r), slices.Index(nodes, c.Proc(r).Core().NodeID); got != want {
			t.Errorf("NodeIndex(%d) = %d, want %d", r, got, want)
		}
	}
	if got, want := c.MaxPPN(), bruteMaxPPN(c); got != want {
		t.Errorf("MaxPPN = %d, want %d", got, want)
	}
	if got := c.UniformBlocks(); got != bruteUniformBlocks(c) || got != wantUniform {
		t.Errorf("UniformBlocks = %v, brute force %v, expected %v", got, bruteUniformBlocks(c), wantUniform)
	}
	for wr, p := range c.world.procs {
		want := slices.Index(c.ranks, wr)
		if got := c.lookup(wr); (got >= 0) != (want >= 0) {
			t.Errorf("lookup(world rank %d) = %d, want a member %v", wr, got, want >= 0)
		}
		if want >= 0 {
			if got := c.Rank(p); got != want {
				t.Errorf("Rank(world rank %d) = %d, want %d", wr, got, want)
			}
		} else if msg := rankPanic(c, p); msg != fmt.Sprintf("mpi: world rank %d not in communicator", wr) {
			t.Errorf("Rank(non-member world rank %d) panicked with %q", wr, msg)
		}
	}
	order := c.PhysicalOrder()
	if want := brutePhysicalOrder(c); !slices.Equal(order, want) {
		t.Errorf("PhysicalOrder = %v, want %v", order, want)
	}
	if again := c.PhysicalOrder(); &again[0] != &order[0] {
		t.Error("PhysicalOrder is not memoised")
	}
}

func TestPlacementIndex(t *testing.T) {
	world := func(t *testing.T, np int, bynode bool) *World {
		m, err := topology.Build(toySpec(4, 2, 2))
		if err != nil {
			t.Fatal(err)
		}
		bind := topology.ByCore
		if bynode {
			bind = topology.ByNode
		}
		b, err := bind(m, np)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorld(m, b, toyConf())
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// subComm splits the world once and returns rank 0's new communicator.
	subComm := func(t *testing.T, w *World, color, key func(p *Proc) int) *Comm {
		var sub *Comm
		err := w.Run(func(p *Proc) {
			if s := w.WorldComm().Split(p, color(p), key(p)); s != nil {
				sub = s
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	onNodes13 := func(p *Proc) int {
		if n := p.Core().NodeID; n == 1 || n == 3 {
			return 0
		}
		return Undefined
	}

	t.Run("by-core", func(t *testing.T) {
		w := world(t, 16, false)
		checkPlacement(t, w.WorldComm(), true)
		for n := range w.Machine.Nodes {
			checkPlacement(t, nodeComm(w, n), true)
		}
	})
	t.Run("by-node", func(t *testing.T) {
		checkPlacement(t, world(t, 16, true).WorldComm(), false)
	})
	t.Run("ragged ppn", func(t *testing.T) {
		checkPlacement(t, world(t, 10, false).WorldComm(), false) // 4 + 4 + 2
	})
	t.Run("one rank per node", func(t *testing.T) {
		checkPlacement(t, world(t, 4, true).WorldComm(), true)
	})
	t.Run("sparse nodes", func(t *testing.T) {
		sub := subComm(t, world(t, 16, false), onNodes13, (*Proc).Rank)
		if sub.Size() != 8 || sub.nodeLo != 1 || len(sub.nodeDense) != 3 {
			t.Fatalf("sub-communicator over nodes {1,3}: size %d, nodeLo %d, table %v", sub.Size(), sub.nodeLo, sub.nodeDense)
		}
		checkPlacement(t, sub, true)
	})
	t.Run("sparse nodes by-node", func(t *testing.T) {
		checkPlacement(t, subComm(t, world(t, 16, true), onNodes13, (*Proc).Rank), false)
	})
	t.Run("descending nodes", func(t *testing.T) {
		sub := subComm(t, world(t, 16, false), onNodes13, func(p *Proc) int { return -p.Rank() })
		checkPlacement(t, sub, false) // contiguous equal runs, but node 3 before node 1
	})
}
