// Package topology models the hardware of a many-core cluster: nodes,
// sockets (NUMA domains), cores, caches, NICs and the inter-node network —
// each backed by fabric resources — together with process-to-core bindings
// and physical-distance queries.
//
// The model mirrors the machines in the HierKNEM paper: Grid'5000's Stremi
// and Parapluie clusters (32 nodes, 2× AMD Opteron 6164 HE, 12 cores per
// socket, one NUMA domain per socket with a 12 MB L3), interconnected by
// Gigabit Ethernet or InfiniBand 20G.
package topology

import (
	"fmt"
	"math"

	"hierknem/internal/des"
	"hierknem/internal/fabric"
)

// Spec declares a cluster's hardware parameters. Bandwidths are bytes/s,
// latencies seconds, sizes bytes.
type Spec struct {
	Name           string
	Nodes          int
	SocketsPerNode int
	CoresPerSocket int

	// Intra-node memory system.
	MemBandwidth      float64 // per-socket (NUMA) memory bus
	CoreCopyBandwidth float64 // single-core copy engine ceiling; also the reduction arithmetic rate
	L3Bandwidth       float64 // per-core copy ceiling when the source is L3-resident (0: no L3 speedup)
	L3TotalBandwidth  float64 // aggregate per-socket L3 read bandwidth (0: 3x MemBandwidth)
	L3Size            int64   // per-socket last-level cache (0: nothing is ever resident)
	ShmLatency        float64 // per-operation intra-node latency

	// Inter-node network.
	NetBandwidth   float64 // per NIC per direction
	NetLatency     float64 // one-way small-message latency; also the rendezvous handshake
	NetFullDuplex  bool    // false: TX and RX share one NIC resource
	EagerThreshold int64   // p2p eager/rendezvous switch (bytes; 0: 4 KiB)
}

// Validate reports the first problem with the spec: a non-positive count
// or core-path bandwidth, or a NaN, infinite or negative value in any other
// numeric field (zero keeps the meaning documented on the field).
func (s *Spec) Validate() error {
	switch {
	case s.Nodes <= 0:
		return fmt.Errorf("topology: %s: Nodes = %d", s.Name, s.Nodes)
	case s.SocketsPerNode <= 0:
		return fmt.Errorf("topology: %s: SocketsPerNode = %d", s.Name, s.SocketsPerNode)
	case s.CoresPerSocket <= 0:
		return fmt.Errorf("topology: %s: CoresPerSocket = %d", s.Name, s.CoresPerSocket)
	}
	for _, f := range []struct {
		name     string
		v        float64
		positive bool
	}{
		{"MemBandwidth", s.MemBandwidth, true},
		{"CoreCopyBandwidth", s.CoreCopyBandwidth, true},
		{"NetBandwidth", s.NetBandwidth, true},
		{"L3Bandwidth", s.L3Bandwidth, false},
		{"L3TotalBandwidth", s.L3TotalBandwidth, false},
		{"L3Size", float64(s.L3Size), false},
		{"ShmLatency", s.ShmLatency, false},
		{"NetLatency", s.NetLatency, false},
		{"EagerThreshold", float64(s.EagerThreshold), false},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 || f.positive && f.v == 0 {
			return fmt.Errorf("topology: %s: %s = %g", s.Name, f.name, f.v)
		}
	}
	return nil
}

// CoresPerNode returns SocketsPerNode * CoresPerSocket.
func (s *Spec) CoresPerNode() int { return s.SocketsPerNode * s.CoresPerSocket }

// TotalCores returns the cluster-wide core count.
func (s *Spec) TotalCores() int { return s.Nodes * s.CoresPerNode() }

// Machine is a built cluster: every hardware element holds its fabric
// resources and the whole machine shares one event engine.
type Machine struct {
	Spec  Spec
	Eng   *des.Engine
	Fab   *fabric.Net
	Nodes []*Node

	cores []*Core // flat index by global core id
}

// Node is one compute node with its NIC(s).
type Node struct {
	ID      int
	Sockets []*Socket

	// NicTx/NicRx are the per-direction NIC resources. With a half-duplex
	// network they alias the same resource.
	NicTx, NicRx *fabric.Resource
}

// Socket is a NUMA domain: a memory bus shared by its cores plus an L3 cache
// with its own (higher-bandwidth) read port.
type Socket struct {
	ID     int // socket index within node
	NodeID int
	MemBus *fabric.Resource
	L3Bus  *fabric.Resource
	Cores  []*Core

	l3 *cacheState
}

// Core is one processor core.
type Core struct {
	GID    int // global core id
	NodeID int
	Socket *Socket
	Local  int // index within socket
}

// Build constructs a Machine (engine, fabric, resources) from a spec.
func Build(spec Spec) (*Machine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	eng := des.New()
	fab := fabric.NewNet(eng)
	m := &Machine{Spec: spec, Eng: eng, Fab: fab}
	gid := 0
	for ni := 0; ni < spec.Nodes; ni++ {
		node := &Node{ID: ni}
		if spec.NetFullDuplex {
			node.NicTx = fab.NewResource(fmt.Sprintf("n%d/nic-tx", ni), spec.NetBandwidth)
			node.NicRx = fab.NewResource(fmt.Sprintf("n%d/nic-rx", ni), spec.NetBandwidth)
		} else {
			nic := fab.NewResource(fmt.Sprintf("n%d/nic", ni), spec.NetBandwidth)
			node.NicTx, node.NicRx = nic, nic
		}
		l3bw := spec.L3TotalBandwidth
		if l3bw == 0 {
			l3bw = 3 * spec.MemBandwidth
		}
		for si := 0; si < spec.SocketsPerNode; si++ {
			sock := &Socket{
				ID:     si,
				NodeID: ni,
				MemBus: fab.NewResource(fmt.Sprintf("n%d/s%d/mem", ni, si), spec.MemBandwidth),
				L3Bus:  fab.NewResource(fmt.Sprintf("n%d/s%d/l3", ni, si), l3bw),
				l3:     newCacheState(spec.L3Size),
			}
			for ci := 0; ci < spec.CoresPerSocket; ci++ {
				core := &Core{GID: gid, NodeID: ni, Socket: sock, Local: ci}
				sock.Cores = append(sock.Cores, core)
				m.cores = append(m.cores, core)
				gid++
			}
			node.Sockets = append(node.Sockets, sock)
		}
		m.Nodes = append(m.Nodes, node)
	}
	return m, nil
}

// Reset returns the machine to its pristine post-Build state for reuse by a
// consecutive same-spec run: the engine clock and queues, the fabric's
// counters and resource integrals, and every socket's L3 residency tracker
// are cleared, while the built structure — nodes, sockets, cores, fabric
// resources — and all warm pools survive. Buffer ids are process-globally
// unique and new buffers start cold, so clearing residency reproduces a
// fresh machine's cache behavior exactly.
func (m *Machine) Reset() {
	m.Eng.Reset()
	m.Fab.Reset()
	for _, node := range m.Nodes {
		for _, sock := range node.Sockets {
			c := sock.l3
			c.used = 0
			clear(c.resident)
			c.order = c.order[:0]
		}
	}
}

// Core returns the core with global id gid.
func (m *Machine) Core(gid int) *Core {
	if gid < 0 || gid >= len(m.cores) {
		panic(fmt.Sprintf("topology: core id %d out of range [0,%d)", gid, len(m.cores)))
	}
	return m.cores[gid]
}

// cacheState tracks which buffers are L3-resident on a socket, with a
// trivial capacity-bounded FIFO eviction. It exists to reproduce the IMB
// root-rotation cache effect in the paper's Figure 6(a).
type cacheState struct {
	capacity int64
	used     int64
	resident map[uint64]int64
	order    []uint64
}

func newCacheState(capacity int64) *cacheState {
	return &cacheState{capacity: capacity, resident: make(map[uint64]int64)}
}

// Touch marks buffer id as resident with the given footprint, evicting the
// oldest entries when over capacity. Streams larger than half the cache are
// never considered resident: a working set that large evicts itself (and
// everything else) while being written, so subsequent readers hit DRAM.
func (s *Socket) Touch(id uint64, bytes int64) {
	c := s.l3
	if c.capacity <= 0 || bytes > c.capacity/2 {
		delete(c.resident, id)
		return
	}
	if old, ok := c.resident[id]; ok {
		c.used -= old
	} else {
		c.order = append(c.order, id)
	}
	c.resident[id] = bytes
	c.used += bytes
	for c.used > c.capacity && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		if victim == id {
			// Never evict the entry just touched; rotate it to the back.
			// Touch guarantees bytes <= capacity, so some other entry
			// must exist while used > capacity.
			c.order = append(c.order, victim)
			continue
		}
		if sz, ok := c.resident[victim]; ok {
			c.used -= sz
			delete(c.resident, victim)
		}
	}
}

// ReadSide resolves where a read of n bytes of buffer id on this socket is
// served from: the L3 port when the region's resident footprint covers the
// read, the memory bus otherwise. It returns the source resource and the
// per-core rate ceiling for the reading core (higher for same-socket
// L3 hits).
func (s *Socket) ReadSide(spec *Spec, id uint64, n int64, readerSameSocket bool) (*fabric.Resource, float64) {
	if id != 0 && n > 0 && s.l3.resident[id] >= n {
		rate := spec.CoreCopyBandwidth
		if readerSameSocket && spec.L3Bandwidth > rate {
			rate = spec.L3Bandwidth
		}
		return s.L3Bus, rate
	}
	return s.MemBus, spec.CoreCopyBandwidth
}
