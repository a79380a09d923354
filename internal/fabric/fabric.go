// Package fabric is a flow-level ("fluid") simulator for shared transport
// resources: network links, NICs, memory buses and per-core copy engines.
//
// A flow moves a number of bytes across an ordered multiset of Resources.
// At every instant, active flows share each resource max-min fairly: rates
// are computed by progressive filling, honoring per-flow rate caps and
// resource multiplicity (a flow whose path lists a resource twice — e.g. a
// local memory copy that both reads and writes the same bus — consumes twice
// its rate there). Completions are delivered as events on the owning
// des.Engine, so fabric transfers compose with any other simulated activity.
//
// The model captures the first-order performance effects the HierKNEM paper
// is about: NIC serialization when many cores on one node talk to the
// network, the memory-bus hot spot on a leader core serving many one-sided
// copies, and the overlap (or lack of it) between intra-node copies and
// inter-node transfers.
//
// # Incremental recomputation
//
// Max-min rates only couple flows that share a resource (directly or
// transitively), so the active flows and resources partition into connected
// components, and the unique max-min allocation of the whole fabric is the
// union of the per-component allocations. The Net maintains that partition
// incrementally: starting a flow merges the components its path touches,
// finishing one marks its component for a local re-partition,
// and each event re-runs progressive filling only over the affected
// component(s). Untouched components keep their rates and their already
// armed completion timers.
//
// Three invariants make the incremental mode *bit-identical* (in virtual
// time) to recomputing everything on every event, not merely close:
//
//  1. Progressive filling is a pure function of a component's membership
//     (flow paths and rate caps), insensitive to iteration order, so a
//     refill of an untouched component reproduces its rates exactly.
//  2. A flow's progress is closed-form — done(t) = done0 + rate·(t−since)
//     — and (done0, since) advance only when the flow's rate changes, so
//     how often a component is visited cannot perturb its arithmetic.
//  3. Completion deadlines are absolute times computed once per rate
//     change, and a component's timer is left untouched when its earliest
//     deadline is unchanged.
//
// # Bundles
//
// Flows with an element-wise identical path and an identical rate cap always
// receive the same rate: progressive filling cannot tell them apart, so they
// freeze in the same round at the same level. Collective traffic is full of
// such twins (many cores copying over one memory-bus pair at one per-core
// cap), so each component keeps its flows grouped into bundles — one per
// distinct (path, cap) with its member count m — and filling runs over
// bundles: a bundle adds m to each resource's weight and takes m away when it
// freezes. The weights only ever hold whole numbers, so adding m once is
// bit-for-bit adding 1 m times, and the rates are exactly the per-flow ones
// (the tests' per-flow shadowFill checks that on every sync).
//
// Bundles also bound splits: a flow that leaves while its bundle survives
// cannot disconnect anything, because its twins still cover every resource
// it crossed. Only the death of a bundle marks its component for a
// re-partition, and the union-find of that re-partition runs over bundle
// paths rather than flow paths.
//
// With refillAll set, the Net re-derives the partition and refills every
// component on every event; by the invariants above it produces the same
// event sequence as the incremental default and serves as the reference for
// the equivalence tests. The tests' shadow checker (shadow_test.go, hung on
// afterSync) additionally cross-checks every sync against a from-scratch
// partition and against the seed's one-pass global filling algorithm.
//
// # Allocation
//
// Benchmark workloads recompute allocations hundreds of thousands of times
// per collective, so the steady state allocates nothing. Three things are
// reused instead of rebuilt:
//
//   - Flows, component shells and bundles. Every flow record, with its
//     delayed-install closure, returns to a Net-owned free list at
//     completion: no entry point hands a caller a reference to it. A
//     component record, its flows/bundles/res backing arrays and its
//     completion-timer closure are recycled the same way
//     (allocComponent/recycleComponent); bundle records, with their path
//     copies, have a free list too.
//   - Recompute scratch. Progressive filling and the union-find of a split
//     keep their per-resource state (resid, wsum, uf) on the Resource itself;
//     a split maps roots to parts through one Net-owned index slice and
//     compacts part 0 into the component's own arrays.
//   - Traffic classes. Class names are interned to small indices on first
//     sight, so the overlap integrals are slices, not string-keyed maps.
//
// Two ordering rules keep the event log independent of what is recycled. A
// split numbers its parts in first-flow order: part order fixes component
// ids and the order completion timers are armed, hence the engine's sequence
// tie-breaks. And a dead shell re-enters the free list only once sync has
// drained the dirty queue (or in Reset), because a component absorbed or
// destroyed while queued is still listed there and must be skipped as dead,
// not recomputed as its next occupant.
//
// A recycled shell keeps backing arrays of at most shellKeep entries. Every
// shell sooner or later carries a fully merged component, and unbounded
// retention grew the ring Allgather world's live heap by 19.5 % (24 shells x
// ~570 entries); the cap holds that to about 2 % at the price of regrowing
// the few large components.
package fabric

import (
	"fmt"
	"math"

	"hierknem/internal/des"
)

// Resource is a capacity-limited transport element (link direction, NIC
// queue, memory bus, copy engine). Create resources with Net.NewResource.
type Resource struct {
	Name     string
	Capacity float64 // bytes per second

	load  float64 // current aggregate consumption, bytes/s
	since float64 // virtual time load was last integrated

	// BytesServed integrates load over time: total bytes that crossed
	// this resource. BusyTime integrates the saturation fraction. Both
	// are integrated lazily — up to date whenever the resource is idle
	// (and therefore at end of run); mid-run readers see values as of
	// the owning component's last recompute.
	BytesServed float64
	BusyTime    float64

	comp *component // owning component; nil while idle
	ridx int        // position in comp.res; -1 while idle

	// heads lists the bundles whose path starts here: the index a starting
	// flow looks its bundle up in. All of them belong to comp.
	heads []*bundle

	// recompute scratch
	resid float64
	wsum  float64
	uf    int32 // union-find scratch for component splitting
}

// Utilization returns BytesServed normalized by capacity*elapsed, i.e. the
// average fraction of the resource's capacity used over [0, now].
func (r *Resource) Utilization(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return r.BytesServed / (r.Capacity * elapsed)
}

// integrate accrues BytesServed/BusyTime at the current load up to now.
func (r *Resource) integrate(now float64) {
	if dt := now - r.since; dt > 0 {
		r.BytesServed += r.load * dt
		r.BusyTime += (r.load / r.Capacity) * dt
	}
	r.since = now
}

// flow is an in-flight transfer: a record of the Net's free list, in service
// from its install to its completion.
type flow struct {
	id      uint64
	size    float64 // bytes
	rateCap float64 // bytes/s; 0 means unlimited
	path    []*Resource
	// class labels the traffic kind ("net", "copy", "compute", ...) for
	// the overlap accounting; empty means unclassified. It is fixed at
	// start: the Net keeps per-class counts.
	class string

	onComplete func()

	comp   *component // owning component; nil when detached
	cidx   int        // position in comp.flows
	bundle *bundle    // the (path, rateCap) group in comp; nil when detached

	// Progress is closed-form: done(t) = done0 + rate·(t−since). The
	// pair (done0, since) is re-anchored only when rate changes, and
	// deadline (the absolute completion time) is computed at the same
	// moment — so progress arithmetic is independent of how often the
	// owning component is recomputed.
	done0    float64
	since    float64
	rate     float64
	deadline float64

	// installFn is built once per record lifetime and survives recycling,
	// so steady-state flow startup allocates nothing.
	installFn func()

	// pathBuf backs Path for StartAfterPath2 flows, so the ubiquitous
	// two-resource copy path (read side, write side) needs no per-call
	// slice. Only the record's own entry point writes it; externally
	// provided paths are never copied in, so shared cached slices (e.g.
	// the MPI layer's net paths) stay aliased, not duplicated.
	pathBuf [2]*Resource
}

// doneAt returns the bytes transferred by time now.
func (f *flow) doneAt(now float64) float64 {
	d := f.done0 + f.rate*(now-f.since)
	if d > f.size {
		d = f.size
	}
	return d
}

// Net owns a set of resources and active flows on one des.Engine.
type Net struct {
	eng        *des.Engine
	comps      []*component // active components, unordered (swap-delete)
	dirty      []*component // components awaiting recompute at the next sync
	resources  []*Resource
	nFlows     int
	nextID     uint64
	nextCompID uint64

	syncScheduled bool
	syncFn        func() // the sync event body, built once in NewNet
	stats         RecomputeStats

	// refillAll makes every sync re-partition and refill every component,
	// not only the dirty ones: the reference the equivalence tests compare
	// the incremental default against. afterSync, when non-nil, runs at the
	// end of every sync (the tests' shadow checker).
	refillAll bool
	afterSync func()

	// flowPool is the flow-record free list. Which dead record a start
	// reuses never shows in the event log: flow IDs are assigned at install.
	flowPool []*flow
	finScr   []*flow // onCompletionTimer scratch, reused across firings

	// compPool is the component-shell free list. A shell killed by
	// removeComp may still be listed in dirty, so it waits in retired until
	// sync has drained that queue. parts and partOf are repartition's
	// split scratch.
	compPool []*component
	retired  []*component
	parts    []*component
	partOf   []int32

	// bundlePool is the free list of bundle records. A bundle dies with its
	// last flow and is never listed anywhere after that, so it is recycled
	// at once.
	bundlePool []*bundle

	// Overlap accounting: virtual time during which at least one flow of
	// a class was active, and during which two classes were concurrently
	// active. This is how experiments quantify the paper's central claim —
	// intra-node copies overlapping inter-node transfers. Maintained from
	// per-class active counts, integrated whenever a count changes. Class
	// names are interned in order of first sight (classNames survives
	// Reset); the pair (i, j) with i < j lives at overlapBusy[j*(j-1)/2+i].
	classNames  []string
	classCount  []int
	classBusy   []float64
	overlapBusy []float64
	lastClass   float64 // virtual time of the last class integration
}

// NewNet creates an empty fabric bound to eng.
func NewNet(eng *des.Engine) *Net {
	n := &Net{eng: eng}
	n.syncFn = func() {
		n.syncScheduled = false
		n.sync()
	}
	return n
}

// Stats returns the recompute counters accumulated so far.
func (n *Net) Stats() RecomputeStats {
	s := n.stats
	s.Components = len(n.comps)
	return s
}

// Reset returns the fabric to its pristine post-NewNet state while keeping
// the expensive arenas warm: the resource set itself, the flow, component and
// bundle free lists, the completion scratch and the interned class names survive,
// so a reused fabric allocates nothing on its next run. Identifier counters
// restart at zero — flow IDs only ever feed the (ID-ordered) progressive-
// filling tie-breaks within one run, so restarting them reproduces a fresh
// fabric's allocation decisions exactly. Reset panics if flows are still in
// flight or a component awaits its sweep: the engine's Run returns only with
// every sync dispatched.
func (n *Net) Reset() {
	if n.nFlows > 0 || len(n.comps) > 0 {
		panic(fmt.Sprintf("fabric: Reset with %d flow(s) in flight and %d component(s) live", n.nFlows, len(n.comps)))
	}
	n.recycleRetired()
	n.Discard()
	n.nextID = 0
	n.nextCompID = 0
	n.stats = RecomputeStats{}
	for _, r := range n.resources {
		r.since = 0
		r.BytesServed = 0
		r.BusyTime = 0
		r.resid = 0
		r.wsum = 0
		r.uf = 0
	}
	clear(n.classBusy)
	clear(n.overlapBusy)
	n.lastClass = 0
}

// Discard drops the flows and components a panicked run left in service
// (their events went with the engine's); on an idle fabric it does nothing.
func (n *Net) Discard() {
	for _, r := range n.resources {
		r.load, r.comp, r.ridx = 0, nil, -1
		clear(r.heads)
		r.heads = r.heads[:0]
	}
	clear(n.comps)
	clear(n.dirty)
	n.comps, n.dirty, n.nFlows, n.syncScheduled = n.comps[:0], n.dirty[:0], 0, false
	clear(n.classCount)
}

// classIndex returns the interned index of a class name, or -1 if no flow
// of that class was ever started. A handful of classes exist in practice, so
// a scan beats hashing the string.
func (n *Net) classIndex(class string) int {
	for i, name := range n.classNames {
		if name == class {
			return i
		}
	}
	return -1
}

// internClass is classIndex for a flow entering service: an unseen name gets
// the next index, and the integrals grow by one class and one row of pairs.
func (n *Net) internClass(class string) int {
	if i := n.classIndex(class); i >= 0 {
		return i
	}
	i := len(n.classNames)
	n.classNames = append(n.classNames, class)
	n.classCount = append(n.classCount, 0)
	n.classBusy = append(n.classBusy, 0)
	for k := 0; k < i; k++ {
		n.overlapBusy = append(n.overlapBusy, 0)
	}
	return i
}

// ClassBusyTime returns the virtual time during which at least one flow of
// the class was active.
func (n *Net) ClassBusyTime(class string) float64 {
	n.advanceClasses()
	if i := n.classIndex(class); i >= 0 {
		return n.classBusy[i]
	}
	return 0
}

// OverlapTime returns the virtual time during which flows of both classes
// were concurrently active.
func (n *Net) OverlapTime(a, b string) float64 {
	n.advanceClasses()
	i, j := n.classIndex(a), n.classIndex(b)
	if i > j {
		i, j = j, i
	}
	if i < 0 || i == j {
		return 0
	}
	return n.overlapBusy[j*(j-1)/2+i]
}

// Resources returns all resources created on this fabric.
func (n *Net) Resources() []*Resource { return n.resources }

// NewResource registers a resource with the given capacity in bytes/s.
func (n *Net) NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		panic(fmt.Sprintf("fabric: resource %q capacity must be positive and finite, got %g", name, capacity))
	}
	r := &Resource{Name: name, Capacity: capacity, ridx: -1}
	n.resources = append(n.resources, r)
	return r
}

const byteEps = 1e-6 // bytes: a flow within this of its size is complete

// Start is StartAfter with no delay and no traffic class.
func (n *Net) Start(size, rateCap float64, path []*Resource, onComplete func()) {
	n.StartAfter("", 0, size, rateCap, path, onComplete)
}

// checkFlowArgs validates a flow before any record is taken for it. A rate
// cap is 0 (unlimited) or positive and finite: anything else would be
// treated as unlimited by fill without a word, and a NaN cap would never
// equal itself as a bundle key.
func checkFlowArgs(size, rateCap float64, pathLen int) {
	if size < 0 || math.IsNaN(size) {
		panic(fmt.Sprintf("fabric: invalid flow size %g", size))
	}
	if rateCap < 0 || math.IsNaN(rateCap) || math.IsInf(rateCap, 0) {
		panic(fmt.Sprintf("fabric: invalid flow rate cap %g", rateCap))
	}
	if pathLen == 0 && rateCap == 0 {
		panic("fabric: flow needs a path or a rate cap")
	}
}

// install assigns the flow its ID and puts it in service. IDs are assigned
// here — after any StartAfter delay — so concurrent flows sort in
// installation order regardless of which entry point created the record.
func (n *Net) install(f *flow) {
	f.id = n.nextID
	n.nextID++
	if f.size <= byteEps {
		cb := f.onComplete
		n.recycleFlow(f)
		if cb != nil {
			n.eng.At(n.eng.Now(), cb)
		}
		return
	}
	n.attach(f)
	n.requestSync()
}

// allocFlow pops a recycled record or mints one.
func (n *Net) allocFlow() *flow {
	var f *flow
	if k := len(n.flowPool) - 1; k >= 0 {
		f = n.flowPool[k]
		n.flowPool[k] = nil
		n.flowPool = n.flowPool[:k]
	} else {
		f = &flow{cidx: -1}
		f.installFn = func() { n.install(f) }
	}
	return f
}

// recycleFlow returns a record to the free list, clearing references so
// recycled flows do not pin paths or callbacks.
func (n *Net) recycleFlow(f *flow) {
	f.path = nil
	f.pathBuf = [2]*Resource{}
	f.class = ""
	f.onComplete = nil
	f.comp = nil
	f.cidx = -1
	f.done0 = 0
	f.since = 0
	f.rate = 0
	f.deadline = 0
	n.flowPool = append(n.flowPool, f)
}

// StartAfter installs a flow of size bytes over path after a fixed latency
// (e.g. a message's wire or rendezvous latency; 0 installs it at once).
// onComplete fires (as an engine event) when the last byte arrives; class
// labels the flow for the overlap accounting. A rate cap is 0 (unlimited) or
// positive and finite, and a flow must have a non-empty path or a positive
// rate cap; otherwise its rate would be unbounded. StartAfter panics on any
// other argument. Zero-size flows complete at their install time.
func (n *Net) StartAfter(class string, delay, size, rateCap float64, path []*Resource, onComplete func()) {
	checkFlowArgs(size, rateCap, len(path))
	f := n.allocFlow()
	f.path = path
	n.schedule(f, class, delay, size, rateCap, onComplete)
}

// StartAfterPath2 is StartAfter specialized to the two-resource path every
// intra-node copy reduces to (a read side and a write side). The record's own
// backing array holds the pair, so starting such a flow allocates nothing in
// steady state.
func (n *Net) StartAfterPath2(class string, delay, size, rateCap float64, r1, r2 *Resource, onComplete func()) {
	checkFlowArgs(size, rateCap, 2)
	f := n.allocFlow()
	f.pathBuf[0], f.pathBuf[1] = r1, r2
	f.path = f.pathBuf[:2]
	n.schedule(f, class, delay, size, rateCap, onComplete)
}

// schedule fills in a started flow and installs it now or after delay.
func (n *Net) schedule(f *flow, class string, delay, size, rateCap float64, onComplete func()) {
	f.size = size
	f.rateCap = rateCap
	f.class = class
	f.onComplete = onComplete
	if delay <= 0 {
		n.install(f)
		return
	}
	n.eng.After(delay, f.installFn)
}

// advanceClasses integrates class-activity time up to engine-now at the
// current per-class counts. Called before any count changes. Every integral
// accumulates independently, so the visiting order cannot change a bit.
func (n *Net) advanceClasses() {
	now := n.eng.Now()
	dt := now - n.lastClass
	n.lastClass = now
	if dt <= 0 {
		return
	}
	for j, cnt := range n.classCount {
		if cnt <= 0 {
			continue
		}
		n.classBusy[j] += dt
		row := n.overlapBusy[j*(j-1)/2:]
		for i, cnt := range n.classCount[:j] {
			if cnt > 0 {
				row[i] += dt
			}
		}
	}
}

// requestSync coalesces recomputation: all adds/removes within one virtual
// instant trigger a single recompute pass over the dirty components.
func (n *Net) requestSync() {
	if n.syncScheduled {
		return
	}
	n.syncScheduled = true
	n.eng.At(n.eng.Now(), n.syncFn)
}

// sync recomputes every dirty component (all of them under refillAll), then
// runs the afterSync hook when set.
func (n *Net) sync() {
	n.stats.Syncs++
	if n.refillAll {
		for _, c := range n.comps {
			c.splitFlag = true
			n.markDirty(c)
		}
	}
	for i := 0; i < len(n.dirty); i++ {
		c := n.dirty[i]
		if c.dead || !c.dirtyFlag {
			continue
		}
		n.recomputeComponent(c)
	}
	for i := range n.dirty {
		n.dirty[i] = nil
	}
	n.dirty = n.dirty[:0]
	n.recycleRetired()
	if n.afterSync != nil {
		n.afterSync()
	}
}

// onCompletionTimer handles the completion timer of one component: flows
// whose deadline has arrived complete now.
func (n *Net) onCompletionTimer(c *component) {
	c.timer = des.Timer{} // fired: drop the stale handle
	now := n.eng.Now()
	finished := n.finScr[:0]
	next := math.Inf(1)
	for _, f := range c.flows {
		if f.deadline <= now {
			finished = append(finished, f)
		} else if f.deadline < next {
			next = f.deadline
		}
	}
	if len(finished) == 0 {
		n.finScr = finished
		// Defensive: the timer fires at the minimum deadline, so some
		// flow must qualify; re-arm rather than stall if not.
		n.scheduleCompletion(c, next)
		return
	}
	// Deterministic callback order.
	sortFlows(finished)
	for _, f := range finished {
		n.detach(f)
	}
	n.stats.Completions += uint64(len(finished))
	// Recycle before firing the callback: a callback that starts a new
	// flow may reuse this very record, which is safe because the flow is
	// already detached and its callback extracted.
	for i, f := range finished {
		cb := f.onComplete
		n.recycleFlow(f)
		finished[i] = nil
		if cb != nil {
			cb()
		}
	}
	n.finScr = finished[:0]
	n.requestSync()
}

// scheduleCompletion (re)arms the completion timer of one component for its
// earliest deadline next (fill's write-back finds it). The timer is left
// untouched when that deadline is unchanged, so a refill that does not alter
// the component's rates does not perturb the engine's event sequence — the
// keystone of refillAll and incremental runs being identical.
func (n *Net) scheduleCompletion(c *component, next float64) {
	if math.IsInf(next, 1) {
		if len(c.flows) > 0 {
			panic("fabric: active flows but no positive rates; simulation would stall")
		}
		c.timer.Cancel()
		return
	}
	if !c.timer.Stopped() && c.timerAt == next {
		return
	}
	c.timer.Cancel()
	if now := n.eng.Now(); next < now {
		next = now
	}
	c.timerAt = next
	c.timer = n.eng.At(next, c.timerFn)
}

func sortFlows(fs []*flow) {
	// insertion sort by ID; completion batches are small
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].id < fs[j-1].id; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}
