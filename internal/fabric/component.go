package fabric

import (
	"fmt"
	"math"

	"hierknem/internal/des"
	"hierknem/internal/san"
)

// component is one connected component of the flow/resource graph: the unit
// of incremental recomputation. Every active flow and every resource on an
// active flow's path belongs to exactly one component; max-min allocation
// never couples flows across components, so each component fills, advances
// and fires completions independently.
//
// Merges are eager (a new flow bridging components absorbs the smaller into
// the larger); splits are lazy (a removal marks splitFlag and the next sync
// re-partitions the component with a local union-find).
//
// Components share no state outside the membership transfers (absorb,
// repartition), which is what lets fill be a pure function of one component's
// membership; equivalence_test.go checks that against ModeGlobal bit for
// bit with enableShadow on every sync.
type component struct {
	id    uint64
	cpos  int // position in Net.comps
	flows []*Flow
	res   []*Resource

	timer   des.Timer // completion timer for the earliest deadline
	timerAt float64   // absolute time the timer is armed for
	timerFn func()    // the timer's body, built once per shell

	dirtyFlag bool // queued for recompute at the next sync
	splitFlag bool // membership may have fragmented (a flow left)
	dead      bool // absorbed or destroyed; skip if found in the dirty queue
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
	if n.san != nil {
		n.san.PoolAlloc(san.KindComponent, c, compName(c))
	}
	n.comps = append(n.comps, c)
	if len(n.comps) > n.stats.PeakComponents {
		n.stats.PeakComponents = len(n.comps)
	}
	return c
}

// recycleComponent returns a dead shell to the free list with its arrays
// (already emptied by whoever killed it) capped at shellKeep entries.
func (n *Net) recycleComponent(c *component) {
	if n.san != nil {
		who := compName(c)
		n.san.PoolRelease(san.KindComponent, c, who)
		if !c.dead {
			// Still listed in n.comps: the partition goes on using a
			// shell the free list is about to hand out again.
			n.san.PoolUse(c, who)
		}
	}
	if cap(c.flows) > shellKeep {
		c.flows = nil
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

// compName names a component incarnation in sanitizer reports.
func compName(c *component) string { return fmt.Sprintf("component %d", c.id) }

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
func (n *Net) attach(f *Flow) {
	n.advanceClasses()
	if f.Class != "" {
		n.classCount[n.internClass(f.Class)]++
	}
	n.nFlows++
	now := n.eng.Now()
	f.since = now
	f.deadline = math.Inf(1)

	var target *component
	for _, r := range f.Path {
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
	for _, r := range f.Path {
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
	n.markDirty(target)
}

// absorb merges component b into a (caller picks a as the larger side).
// It is the designated membership transfer: the merge retargets every flow
// and resource of b onto a and kills b, under the engine's single-threaded
// sync — the one place cross-component stores are the point.
func (n *Net) absorb(a, b *component) {
	n.stats.Merges++
	for _, f := range b.flows {
		f.comp = a
		f.cidx = len(a.flows)
		a.flows = append(a.flows, f)
	}
	for _, r := range b.res {
		r.comp = a
		r.ridx = len(a.res)
		a.res = append(a.res, r)
	}
	a.splitFlag = a.splitFlag || b.splitFlag
	clear(b.flows)
	b.flows = b.flows[:0]
	clear(b.res)
	b.res = b.res[:0]
	b.timer.Cancel()
	n.removeComp(b)
}

// detach removes a flow from its component (swap-delete) and marks the
// component for a lazy split check at the next sync.
func (n *Net) detach(f *Flow) {
	n.advanceClasses()
	if f.Class != "" {
		n.classCount[n.classIndex(f.Class)]--
	}
	n.nFlows--
	c := f.comp
	last := len(c.flows) - 1
	other := c.flows[last]
	c.flows[f.cidx] = other
	other.cidx = f.cidx
	c.flows[last] = nil
	c.flows = c.flows[:last]
	f.comp = nil
	f.cidx = -1
	f.rate = 0
	c.splitFlag = true
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
				n.fill(p)
				n.scheduleCompletion(p)
			}
			return
		}
	}
	n.fill(c)
	n.scheduleCompletion(c)
}

// repartition re-derives the connected components of c's membership with a
// local union-find over its resources. It returns nil when the component is
// still connected (the common case: a completed flow's peers share its
// links); otherwise it returns the resulting parts (in Net-owned scratch,
// valid until the next call), the first of which reuses c's shell — and
// therefore c's armed timer, which stays valid when the surviving minimum
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
	for _, f := range c.flows {
		if len(f.Path) == 0 {
			continue
		}
		n.stats.ResourceVisits += uint64(len(f.Path))
		r0 := find(f.Path[0].uf)
		for _, r := range f.Path[1:] {
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

	// Connected fast path: all flows share one root. Pathless flows are
	// always their own group (they can only be sole occupants — nothing
	// ever merges into a component without resources).
	single := true
	root0 := int32(-1)
	for _, f := range c.flows {
		if len(f.Path) == 0 {
			single = len(c.flows) == 1
			break
		}
		rt := f.Path[0].uf
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
	n.stats.Splits++
	partOf := n.partOf[:0] // union-find root (an index into res) -> part
	for range res {
		partOf = append(partOf, -1)
	}
	n.partOf = partOf
	flows := c.flows
	c.flows, c.res = flows[:0], res[:0]
	parts := n.parts[:0]
	nextPart := func() *component {
		p := c
		if len(parts) > 0 {
			p = n.allocComponent()
		}
		parts = append(parts, p)
		return p
	}
	for _, f := range flows {
		var p *component
		if len(f.Path) == 0 {
			p = nextPart()
		} else if root := f.Path[0].uf; partOf[root] >= 0 {
			p = parts[partOf[root]]
		} else {
			partOf[root] = int32(len(parts))
			p = nextPart()
		}
		f.comp = p
		f.cidx = len(p.flows)
		p.flows = append(p.flows, f)
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
	clear(res[len(c.res):])
	n.parts = parts
	return parts
}

// fill assigns max-min fair rates to the component's flows by progressive
// filling: raise every unfrozen flow's rate uniformly until a flow hits its
// cap or a resource saturates; freeze those and repeat. The result is a pure
// function of the component's membership: every step is a min over a set or
// an independent per-element update, so iteration order cannot change the
// outcome — the property the incremental/global equivalence rests on.
func (n *Net) fill(c *component) {
	now := n.eng.Now()
	n.stats.Fills++
	for _, r := range c.res {
		r.integrate(now)
		r.resid = r.Capacity
		r.wsum = 0
	}
	for _, f := range c.flows {
		f.prevRate = f.rate
		f.frozen = false
		for _, r := range f.Path {
			r.wsum++
		}
	}
	n.stats.ResourceVisits += uint64(len(c.res))
	n.stats.FlowVisits += uint64(len(c.flows))

	unfrozen := len(c.flows)
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
		for _, f := range c.flows {
			if !f.frozen && f.RateCap > 0 {
				if d := f.RateCap - level; d < delta {
					delta = d
				}
			}
		}
		n.stats.FlowVisits += uint64(len(c.flows))
		if math.IsInf(delta, 1) {
			// Flows with no constraining resource and no cap; unreachable
			// given Start's validation, but guard anyway.
			for _, f := range c.flows {
				if !f.frozen {
					f.frozen = true
					f.rate = level
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
		for _, f := range c.flows {
			if f.frozen {
				continue
			}
			capped := f.RateCap > 0 && level >= f.RateCap*(1-relEps)
			saturated := false
			if !capped {
				for _, r := range f.Path {
					if r.resid <= r.Capacity*relEps {
						saturated = true
						break
					}
				}
			}
			if capped || saturated {
				f.frozen = true
				f.rate = level
				unfrozen--
				for _, r := range f.Path {
					r.wsum--
				}
				frozeAny = true
			}
		}
		if !frozeAny {
			// Numerical stalemate: freeze everything at the current level.
			for _, f := range c.flows {
				if !f.frozen {
					f.frozen = true
					f.rate = level
					unfrozen--
				}
			}
		}
	}

	// Write new loads, and re-anchor progress and deadline for flows whose
	// rate changed. Flows whose rate came out identical keep their anchor
	// and deadline bit-for-bit, so refilling an untouched component is a
	// no-op in virtual time.
	for _, r := range c.res {
		r.load = 0
	}
	for _, f := range c.flows {
		for _, r := range f.Path {
			r.load += f.rate
		}
		if f.rate != f.prevRate {
			f.done0 = f.doneAtRate(now, f.prevRate)
			f.since = now
			if f.rate > 0 {
				f.deadline = now + (f.Size-f.done0)/f.rate
			} else {
				f.deadline = math.Inf(1)
			}
		}
	}
}

// doneAtRate is doneAt with an explicit rate (the pre-refill rate, used
// when re-anchoring progress at a rate change).
func (f *Flow) doneAtRate(now, rate float64) float64 {
	d := f.done0 + rate*(now-f.since)
	if d > f.Size {
		d = f.Size
	}
	return d
}
