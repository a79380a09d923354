package fabric

import (
	"math"
	"slices"

	"hierknem/internal/des"
)

// component is one connected component of the flow/resource graph: the unit
// of incremental recomputation. Every active flow and every resource on an
// active flow's path belongs to exactly one component; max-min allocation
// never couples flows across components, so each component fills, advances
// and fires completions independently.
//
// Merges are eager (a new flow bridging components absorbs the smaller into
// the larger); splits are lazy (a removal that kills a bundle marks splitFlag
// and the next sync re-partitions the component with a local union-find).
//
// Components share no state outside the membership transfers (absorb,
// repartition), which is what lets fill be a pure function of one component's
// membership; equivalence_test.go checks that against refillAll bit for
// bit with enableShadow on every sync.
type component struct {
	id      uint64
	cpos    int // position in Net.comps
	flows   []*flow
	bundles []*bundle // flows grouped by (path, rateCap), unordered
	res     []*Resource

	timer   des.Timer // completion timer for the earliest deadline
	timerAt float64   // absolute time the timer is armed for
	timerFn func()    // the timer's body, built once per shell

	dirtyFlag bool // queued for recompute at the next sync
	splitFlag bool // membership may have fragmented (a bundle died)
	dead      bool // absorbed or destroyed; skip if found in the dirty queue
}

// bundle is the set of a component's flows whose paths are element-wise
// identical and whose rate caps are equal (see "Bundles" in the package
// comment). A bundle lives in one component: its members all start at
// path[0], which belongs to exactly one component, and the bundle is listed
// in path[0].heads.
type bundle struct {
	// path is the bundle's own copy of its members' path: a flow's
	// pathBuf is reused for another path once that flow completes, while
	// its twins may still be in flight. pathBuf backs it for every path the
	// MPI layer builds (five resources at most), so a bundle record is one
	// allocation.
	path    []*Resource
	pathBuf [5]*Resource
	cap     float64
	m       int // member flows
	bidx    int // position in comp.bundles

	// fill scratch
	rate   float64
	frozen bool
}

// shellKeep is the largest backing array (in entries) a recycled shell keeps;
// see the package comment for the measurement behind it.
const shellKeep = 128

// allocComponent puts an empty component into service on a recycled shell,
// or a freshly minted one when the free list is empty.
func (n *Net) allocComponent() *component {
	var c *component
	if k := len(n.compPool) - 1; k >= 0 {
		c = n.compPool[k]
		n.compPool = n.compPool[:k]
	} else {
		c = &component{}
		c.timerFn = func() { n.onCompletionTimer(c) }
	}
	c.id = n.nextCompID
	n.nextCompID++
	c.cpos = len(n.comps)
	c.dead = false
	n.comps = append(n.comps, c)
	if len(n.comps) > n.stats.PeakComponents {
		n.stats.PeakComponents = len(n.comps)
	}
	return c
}

// recycleComponent returns a dead shell to the free list with its arrays
// (already emptied by whoever killed it) capped at shellKeep entries.
func (n *Net) recycleComponent(c *component) {
	if cap(c.flows) > shellKeep {
		c.flows = nil
	}
	if cap(c.bundles) > shellKeep {
		c.bundles = nil
	}
	if cap(c.res) > shellKeep {
		c.res = nil
	}
	c.timer = des.Timer{}
	c.timerAt = 0
	c.dirtyFlag = false
	c.splitFlag = false
	n.compPool = append(n.compPool, c)
}

// recycleRetired moves the shells killed since the last sync to the free
// list. Callers have emptied the dirty queue first.
func (n *Net) recycleRetired() {
	for _, c := range n.retired {
		n.recycleComponent(c)
	}
	n.retired = n.retired[:0]
}

func (n *Net) markDirty(c *component) {
	if !c.dirtyFlag {
		c.dirtyFlag = true
		n.dirty = append(n.dirty, c)
	}
}

func (n *Net) removeComp(c *component) {
	last := len(n.comps) - 1
	other := n.comps[last]
	n.comps[c.cpos] = other
	other.cpos = c.cpos
	n.comps[last] = nil
	n.comps = n.comps[:last]
	c.cpos = -1
	c.dead = true
	n.retired = append(n.retired, c)
}

// attach inserts a new flow: it joins the component owning its path's
// resources, eagerly merging if the path bridges several.
func (n *Net) attach(f *flow) {
	n.advanceClasses()
	if f.class != "" {
		n.classCount[n.internClass(f.class)]++
	}
	n.nFlows++
	now := n.eng.Now()
	f.since = now
	f.deadline = math.Inf(1)

	var target *component
	for _, r := range f.path {
		c := r.comp
		if c == nil || c == target {
			continue
		}
		if target == nil {
			target = c
			continue
		}
		a, b := target, c
		if len(a.flows)+len(a.res) < len(b.flows)+len(b.res) {
			a, b = b, a
		}
		n.absorb(a, b)
		target = a
	}
	if target == nil {
		target = n.allocComponent()
	}
	for _, r := range f.path {
		if r.comp == nil {
			r.comp = target
			r.ridx = len(target.res)
			r.since = now
			target.res = append(target.res, r)
		}
	}
	f.comp = target
	f.cidx = len(target.flows)
	target.flows = append(target.flows, f)
	n.joinBundle(target, f)
	n.markDirty(target)
}

// joinBundle files an attaching flow under the bundle of its (path, rateCap)
// in c, opening one when c has none. A pathless flow always opens its own:
// it is the sole occupant of a component of its own.
func (n *Net) joinBundle(c *component, f *flow) {
	var b *bundle
	if len(f.path) > 0 {
		for _, x := range f.path[0].heads {
			if x.cap == f.rateCap && slices.Equal(x.path, f.path) {
				b = x
				break
			}
		}
	}
	if b == nil {
		if k := len(n.bundlePool) - 1; k >= 0 {
			b = n.bundlePool[k]
			n.bundlePool[k] = nil
			n.bundlePool = n.bundlePool[:k]
		} else {
			b = &bundle{}
			b.path = b.pathBuf[:0]
		}
		b.path = append(b.path, f.path...)
		b.cap = f.rateCap
		b.bidx = len(c.bundles)
		c.bundles = append(c.bundles, b)
		if len(f.path) > 0 {
			f.path[0].heads = append(f.path[0].heads, b)
		}
	}
	b.m++
	f.bundle = b
}

// dropBundle unlists a bundle whose last flow has left c and recycles it.
func (n *Net) dropBundle(c *component, b *bundle) {
	last := len(c.bundles) - 1
	other := c.bundles[last]
	c.bundles[b.bidx] = other
	other.bidx = b.bidx
	c.bundles[last] = nil
	c.bundles = c.bundles[:last]
	if len(b.path) > 0 {
		r := b.path[0]
		k := len(r.heads) - 1
		r.heads[slices.Index(r.heads, b)] = r.heads[k]
		r.heads[k] = nil
		r.heads = r.heads[:k]
	}
	clear(b.path)
	b.path = b.path[:0]
	b.bidx = -1
	n.bundlePool = append(n.bundlePool, b)
}

// absorb merges component b into a (caller picks a as the larger side).
// It is the designated membership transfer: the merge retargets every flow,
// bundle and resource of b onto a and kills b, under the engine's
// single-threaded sync — the one place cross-component stores are the point.
// No two bundles of the merged component share a key: twins start at the
// same resource, so they were in one component already.
func (n *Net) absorb(a, b *component) {
	n.stats.Merges++
	for _, f := range b.flows {
		f.comp = a
		f.cidx = len(a.flows)
		a.flows = append(a.flows, f)
	}
	for _, x := range b.bundles {
		x.bidx = len(a.bundles)
		a.bundles = append(a.bundles, x)
	}
	for _, r := range b.res {
		r.comp = a
		r.ridx = len(a.res)
		a.res = append(a.res, r)
	}
	a.splitFlag = a.splitFlag || b.splitFlag
	clear(b.flows)
	b.flows = b.flows[:0]
	clear(b.bundles)
	b.bundles = b.bundles[:0]
	clear(b.res)
	b.res = b.res[:0]
	b.timer.Cancel()
	n.removeComp(b)
}

// detach removes a flow from its component (swap-delete). When the flow was
// the last of its bundle, the component is marked for a lazy split check at
// the next sync; a surviving twin still covers every resource the flow
// crossed, so nothing can have come apart otherwise.
func (n *Net) detach(f *flow) {
	n.advanceClasses()
	if f.class != "" {
		n.classCount[n.classIndex(f.class)]--
	}
	n.nFlows--
	c := f.comp
	last := len(c.flows) - 1
	other := c.flows[last]
	c.flows[f.cidx] = other
	other.cidx = f.cidx
	c.flows[last] = nil
	c.flows = c.flows[:last]
	b := f.bundle
	if b.m--; b.m == 0 {
		n.dropBundle(c, b)
		c.splitFlag = true
	}
	f.comp = nil
	f.cidx = -1
	f.bundle = nil
	f.rate = 0
	n.markDirty(c)
}

func (n *Net) releaseResource(r *Resource) {
	r.integrate(n.eng.Now())
	r.load = 0
	r.comp = nil
	r.ridx = -1
}

// destroyComponent retires a component whose last flow has left.
func (n *Net) destroyComponent(c *component) {
	for _, r := range c.res {
		n.releaseResource(r)
	}
	clear(c.res)
	c.res = c.res[:0]
	c.timer.Cancel()
	n.removeComp(c)
}

// recomputeComponent re-derives a dirty component's membership (when a
// removal may have fragmented it) and re-runs progressive filling.
func (n *Net) recomputeComponent(c *component) {
	c.dirtyFlag = false
	if len(c.flows) == 0 {
		n.destroyComponent(c)
		return
	}
	if c.splitFlag {
		c.splitFlag = false
		if parts := n.repartition(c); parts != nil {
			for _, p := range parts {
				n.scheduleCompletion(p, n.fill(p))
			}
			return
		}
	}
	n.scheduleCompletion(c, n.fill(c))
}

// repartition re-derives the connected components of c's membership with a
// local union-find over its resources, uniting along bundle paths (a
// bundle's members all cross the same resources). It returns nil when the
// component is still connected (the common case: a completed flow's peers
// share its links); otherwise it returns the resulting parts (in Net-owned
// scratch, valid until the next call), the first of which reuses c's shell —
// and therefore c's armed timer, which stays valid when the surviving minimum
// deadline is unchanged.
func (n *Net) repartition(c *component) []*component {
	n.stats.Repartitions++
	res := c.res
	for i, r := range res {
		r.uf = int32(i)
	}
	find := func(i int32) int32 {
		for res[i].uf != i {
			res[i].uf = res[res[i].uf].uf
			i = res[i].uf
		}
		return i
	}
	for _, b := range c.bundles {
		if len(b.path) == 0 {
			continue
		}
		n.stats.ResourceVisits += uint64(len(b.path))
		r0 := find(b.path[0].uf)
		for _, r := range b.path[1:] {
			if r1 := find(r.uf); r1 != r0 {
				res[r1].uf = r0
			}
		}
	}
	// Flatten: r.uf becomes r's root. The grouping below compacts res in
	// place, so it must not chase parent chains through the array anymore.
	for i := range res {
		res[i].uf = find(int32(i))
	}

	// Connected fast path: all bundles share one root. A pathless flow is
	// always a group of its own, and the sole occupant of its component:
	// nothing ever merges into a component without resources.
	single := true
	root0 := int32(-1)
	for _, b := range c.bundles {
		if len(b.path) == 0 {
			single = len(c.flows) == 1
			break
		}
		rt := b.path[0].uf
		if root0 < 0 {
			root0 = rt
		} else if rt != root0 {
			single = false
			break
		}
	}
	if single {
		// Drop resources no flow references anymore. An unused resource
		// was never united, so it is its own singleton root ≠ root0.
		kept := c.res[:0]
		for _, r := range res {
			if root0 >= 0 && r.uf == root0 {
				r.ridx = len(kept)
				kept = append(kept, r)
			} else {
				n.releaseResource(r)
			}
		}
		c.res = kept
		return nil
	}

	// Parts are numbered in order of their first flow, and members keep
	// their relative order. Part 0 is compacted into c's own arrays: its
	// k-th member is written at index k, never ahead of the read position.
	// Every flow here has a path: a pathless one is alone, hence single.
	n.stats.Splits++
	partOf := n.partOf[:0] // union-find root (an index into res) -> part
	for range res {
		partOf = append(partOf, -1)
	}
	n.partOf = partOf
	flows, bundles := c.flows, c.bundles
	c.flows, c.bundles, c.res = flows[:0], bundles[:0], res[:0]
	parts := n.parts[:0]
	for _, f := range flows {
		root := f.path[0].uf
		if partOf[root] < 0 {
			partOf[root] = int32(len(parts))
			p := c
			if len(parts) > 0 {
				p = n.allocComponent()
			}
			parts = append(parts, p)
		}
		p := parts[partOf[root]]
		f.comp = p
		f.cidx = len(p.flows)
		p.flows = append(p.flows, f)
	}
	for _, b := range bundles {
		p := parts[partOf[b.path[0].uf]]
		b.bidx = len(p.bundles)
		p.bundles = append(p.bundles, b)
	}
	for _, r := range res {
		if pi := partOf[r.uf]; pi >= 0 {
			p := parts[pi]
			r.comp = p
			r.ridx = len(p.res)
			p.res = append(p.res, r)
		} else {
			n.releaseResource(r)
		}
	}
	clear(flows[len(c.flows):])
	clear(bundles[len(c.bundles):])
	clear(res[len(c.res):])
	n.parts = parts
	return parts
}

// fill assigns max-min fair rates to the component's flows by progressive
// filling: raise every unfrozen flow's rate uniformly until a flow hits its
// cap or a resource saturates; freeze those and repeat. The rounds run over
// bundles, each weighing its member count m: members share a path and a cap,
// so they freeze together, and the weights stay whole numbers, so every sum
// is the one the per-flow filling forms. The result is a pure function of the
// component's membership: every step is a min over a set or an independent
// per-element update, so iteration order cannot change the outcome — the
// property the incremental/global equivalence rests on.
//
// fill returns the component's earliest completion deadline, found by the
// write-back pass that visits every flow anyway.
func (n *Net) fill(c *component) float64 {
	now := n.eng.Now()
	n.stats.Fills++
	for _, r := range c.res {
		r.integrate(now)
		r.resid = r.Capacity
		r.wsum = 0
	}
	for _, b := range c.bundles {
		b.frozen = false
		w := float64(b.m)
		for _, r := range b.path {
			r.wsum += w
		}
	}
	n.stats.ResourceVisits += uint64(len(c.res))
	n.stats.FlowVisits += uint64(len(c.bundles))

	unfrozen := len(c.bundles)
	level := 0.0
	const relEps = 1e-9
	for unfrozen > 0 {
		n.stats.Rounds++
		delta := math.Inf(1)
		for _, r := range c.res {
			if r.wsum > relEps {
				if d := r.resid / r.wsum; d < delta {
					delta = d
				}
			}
		}
		n.stats.ResourceVisits += uint64(len(c.res))
		for _, b := range c.bundles {
			if !b.frozen && b.cap > 0 {
				if d := b.cap - level; d < delta {
					delta = d
				}
			}
		}
		n.stats.FlowVisits += uint64(len(c.bundles))
		if math.IsInf(delta, 1) {
			// Flows with no constraining resource and no cap; unreachable
			// given Start's validation, but guard anyway.
			for _, b := range c.bundles {
				if !b.frozen {
					b.frozen = true
					b.rate = level
				}
			}
			break
		}
		if delta < 0 {
			delta = 0
		}
		level += delta
		for _, r := range c.res {
			r.resid -= delta * r.wsum
		}
		n.stats.ResourceVisits += uint64(len(c.res))

		frozeAny := false
		for _, b := range c.bundles {
			if b.frozen {
				continue
			}
			capped := b.cap > 0 && level >= b.cap*(1-relEps)
			saturated := false
			if !capped {
				for _, r := range b.path {
					if r.resid <= r.Capacity*relEps {
						saturated = true
						break
					}
				}
			}
			if capped || saturated {
				b.frozen = true
				b.rate = level
				unfrozen--
				w := float64(b.m)
				for _, r := range b.path {
					r.wsum -= w
				}
				frozeAny = true
			}
		}
		if !frozeAny {
			// Numerical stalemate: freeze everything at the current level.
			for _, b := range c.bundles {
				if !b.frozen {
					b.frozen = true
					b.rate = level
					unfrozen--
				}
			}
		}
	}

	// Write new loads, per flow in c.flows order (a float sum's bits depend
	// on its order), and re-anchor progress and deadline for flows whose rate
	// changed. Flows whose rate came out identical keep their anchor and
	// deadline bit-for-bit, so refilling an untouched component is a no-op in
	// virtual time.
	for _, r := range c.res {
		r.load = 0
	}
	next := math.Inf(1)
	for _, f := range c.flows {
		rate := f.bundle.rate
		for _, r := range f.path {
			r.load += rate
		}
		if rate != f.rate {
			f.done0 = f.doneAt(now)
			f.since = now
			f.rate = rate
			if rate > 0 {
				f.deadline = now + (f.size-f.done0)/rate
			} else {
				f.deadline = math.Inf(1)
			}
		}
		if f.deadline < next {
			next = f.deadline
		}
	}
	n.stats.FlowVisits += uint64(len(c.flows))
	return next
}
