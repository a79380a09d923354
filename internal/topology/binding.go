package topology

import (
	"fmt"
	"sort"
)

// Binding maps MPI ranks to global core ids. The paper evaluates the default
// uniform "by core" strategy, the round-robin "by node" strategy, and the
// irregular placements produced by tools like MPIPP (modeled here as custom
// permutations).
type Binding struct {
	Name   string
	CoreOf []int // rank -> global core id
}

// NP returns the number of bound processes.
func (b *Binding) NP() int { return len(b.CoreOf) }

// Core returns the core a rank is bound to.
func (b *Binding) Core(m *Machine, rank int) *Core { return m.Core(b.CoreOf[rank]) }

// Validate checks that the binding is injective and within machine range.
func (b *Binding) Validate(m *Machine) error {
	seen := make(map[int]bool, len(b.CoreOf))
	for rank, gid := range b.CoreOf {
		if gid < 0 || gid >= m.Spec.TotalCores() {
			return fmt.Errorf("topology: binding %s: rank %d bound to core %d, machine has %d cores",
				b.Name, rank, gid, m.Spec.TotalCores())
		}
		if seen[gid] {
			return fmt.Errorf("topology: binding %s: core %d bound twice", b.Name, gid)
		}
		seen[gid] = true
	}
	return nil
}

// checkNP rejects a process count the machine cannot host.
func checkNP(m *Machine, np int) error {
	if total := m.Spec.TotalCores(); np < 1 || np > total {
		return fmt.Errorf("topology: np %d out of range [1, %d]", np, total)
	}
	return nil
}

// ByCore builds the default binding: sequential ranks fill the cores of a
// node before moving to the next node.
func ByCore(m *Machine, np int) (*Binding, error) {
	if err := checkNP(m, np); err != nil {
		return nil, err
	}
	b := &Binding{Name: "bycore", CoreOf: make([]int, np)}
	for r := 0; r < np; r++ {
		b.CoreOf[r] = r
	}
	return b, nil
}

// ByNode builds the round-robin binding: one process per node per round,
// skipping nodes whose cores are exhausted, exactly as the paper describes.
func ByNode(m *Machine, np int) (*Binding, error) {
	if err := checkNP(m, np); err != nil {
		return nil, err
	}
	cpn := m.Spec.CoresPerNode()
	used := make([]int, m.Spec.Nodes) // next free core index per node
	b := &Binding{Name: "bynode", CoreOf: make([]int, np)}
	r := 0
	for r < np {
		for ni := 0; ni < m.Spec.Nodes && r < np; ni++ {
			if used[ni] >= cpn {
				continue
			}
			b.CoreOf[r] = ni*cpn + used[ni]
			used[ni]++
			r++
		}
	}
	return b, nil
}

// ByCorePPN builds the binding used by the paper's per-node scaling studies
// (Figures 2 and 7): sequential ranks fill exactly ppn cores per node before
// moving to the next node, leaving the remaining cores idle.
func ByCorePPN(m *Machine, np, ppn int) (*Binding, error) {
	if ppn <= 0 || ppn > m.Spec.CoresPerNode() {
		return nil, fmt.Errorf("topology: ppn %d out of range [1,%d]", ppn, m.Spec.CoresPerNode())
	}
	if np > ppn*m.Spec.Nodes {
		return nil, fmt.Errorf("topology: %d processes > %d nodes x %d ppn", np, m.Spec.Nodes, ppn)
	}
	cpn := m.Spec.CoresPerNode()
	b := &Binding{Name: fmt.Sprintf("bycore-ppn%d", ppn), CoreOf: make([]int, np)}
	for r := 0; r < np; r++ {
		node := r / ppn
		slot := r % ppn
		b.CoreOf[r] = node*cpn + slot
	}
	return b, nil
}

// Custom builds a binding from an explicit rank -> core table.
func Custom(name string, coreOf []int) *Binding {
	c := make([]int, len(coreOf))
	copy(c, coreOf)
	return &Binding{Name: name, CoreOf: c}
}

// RanksByNode groups ranks by the node their core lives on, each group in
// ascending rank order. The outer slice is indexed by node id; nodes with no
// ranks have empty groups.
func (b *Binding) RanksByNode(m *Machine) [][]int {
	groups := make([][]int, m.Spec.Nodes)
	for rank, gid := range b.CoreOf {
		ni := m.Core(gid).NodeID
		groups[ni] = append(groups[ni], rank)
	}
	return groups
}

// Leaders returns, for every node hosting at least one rank, that node's
// lowest rank — the inter-node leader — in node-id order.
func (b *Binding) Leaders(m *Machine) []int {
	var leaders []int
	for _, ranks := range b.RanksByNode(m) {
		if len(ranks) > 0 {
			leaders = append(leaders, ranks[0])
		}
	}
	return leaders
}

// PhysicalOrder returns all ranks sorted by physical position: node id, then
// socket id, then core index. This is the order HierKNEM uses to build its
// topology-aware ring, so that only set-boundary edges cross slow links.
func (b *Binding) PhysicalOrder(m *Machine) []int {
	ranks := make([]int, b.NP())
	for i := range ranks {
		ranks[i] = i
	}
	sort.SliceStable(ranks, func(i, j int) bool {
		a, c := m.Core(b.CoreOf[ranks[i]]), m.Core(b.CoreOf[ranks[j]])
		if a.NodeID != c.NodeID {
			return a.NodeID < c.NodeID
		}
		if a.Socket.ID != c.Socket.ID {
			return a.Socket.ID < c.Socket.ID
		}
		return a.Local < c.Local
	})
	return ranks
}

// CrossNodeEdges counts how many consecutive pairs in ring order (including
// the wrap-around edge) connect different nodes — the paper's measure of
// how topology-(un)aware a logical ring is.
func CrossNodeEdges(m *Machine, b *Binding, order []int) int {
	n := len(order)
	if n < 2 {
		return 0
	}
	cross := 0
	for i := 0; i < n; i++ {
		a := m.Core(b.CoreOf[order[i]])
		c := m.Core(b.CoreOf[order[(i+1)%n]])
		if a.NodeID != c.NodeID {
			cross++
		}
	}
	return cross
}
