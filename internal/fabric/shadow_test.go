package fabric

import (
	"fmt"
	"math"
	"slices"
)

// The shadow checker re-derives every sync from scratch and compares. It
// lives in tests only: the shipped Net exposes just the afterSync hook it
// hangs on.

// shadowRelTol bounds the divergence allowed between per-component filling
// and the seed's one-pass global filling. The two are equal in exact
// arithmetic but accumulate `level` through different delta sequences, so
// they may differ by a few ulps.
const shadowRelTol = 1e-9

// enableShadow turns on the always-on-in-tests cross-check: after every
// sync the Net re-derives the component partition and all rates from
// scratch and compares them against the incrementally maintained state
// (exactly), and against the seed's one-pass global filling (within a tight
// relative tolerance — its fp delta sequence differs). onMismatch receives
// a description of any divergence; nil means panic, which is what the tests
// want.
func (n *Net) enableShadow(onMismatch func(format string, args ...any)) {
	if onMismatch == nil {
		onMismatch = func(format string, args ...any) {
			panic("fabric shadow: " + fmt.Sprintf(format, args...))
		}
	}
	n.afterSync = func() { n.runShadow(onMismatch) }
}

// runShadow cross-checks the incrementally maintained state after a sync:
//
//   - structural invariants (back-pointers, bundle membership and keys,
//     flow counts, class counts, idle resources, each component's timer at
//     its earliest deadline);
//   - the component partition against a from-scratch union-find;
//   - every flow's rate against a from-scratch refill of its component
//     (exact equality — fill is a pure function of membership, so any
//     missed-dirty bug shows up as a bit difference here);
//   - every resource's load against the sum of its flows' rates (exact);
//   - every flow's deadline against its closed-form progress (exact);
//   - all rates against the seed's one-pass global filling (within
//     shadowRelTol).
//
// It is meant to run under tests and costs O(flows × resources) per sync.
func (n *Net) runShadow(mismatch func(format string, args ...any)) {
	// Structural invariants.
	nf := 0
	for ci, c := range n.comps {
		if c.dead {
			mismatch("component %d is dead but listed", c.id)
			return
		}
		if c.cpos != ci {
			mismatch("component %d cpos=%d, listed at %d", c.id, c.cpos, ci)
			return
		}
		if len(c.flows) == 0 {
			mismatch("component %d has no flows after sync", c.id)
			return
		}
		for i, f := range c.flows {
			if f.comp != c || f.cidx != i {
				mismatch("flow %d back-pointer broken in component %d", f.id, c.id)
				return
			}
			for _, r := range f.path {
				if r.comp != c {
					mismatch("flow %d (component %d) crosses resource %q owned elsewhere", f.id, c.id, r.Name)
					return
				}
			}
		}
		for i, r := range c.res {
			if r.comp != c || r.ridx != i {
				mismatch("resource %q back-pointer broken in component %d", r.Name, c.id)
				return
			}
		}
		if !n.bundlesConsistent(c, mismatch) {
			return
		}
		if c.timer.Stopped() {
			mismatch("component %d has flows but no armed completion timer", c.id)
			return
		}
		next := math.Inf(1)
		for _, f := range c.flows {
			next = math.Min(next, f.deadline)
		}
		// The timer sits at the earliest deadline, or at the instant it was
		// armed when that deadline had already passed.
		if c.timerAt != next && !(next < c.timerAt && c.timerAt <= n.eng.Now()) {
			mismatch("component %d timer armed for %g, earliest deadline is %g", c.id, c.timerAt, next)
			return
		}
		nf += len(c.flows)
	}
	if nf != n.nFlows {
		mismatch("flow count %d, components hold %d", n.nFlows, nf)
		return
	}
	counts := make(map[string]int)
	for _, c := range n.comps {
		for _, f := range c.flows {
			if f.class != "" {
				counts[f.class]++
			}
		}
	}
	for i, class := range n.classNames {
		if cnt := n.classCount[i]; cnt != counts[class] {
			mismatch("class %q count %d, flows say %d", class, cnt, counts[class])
			return
		}
	}
	for class, cnt := range counts {
		if n.classIndex(class) < 0 {
			mismatch("class %q count %d missing from bookkeeping", class, cnt)
			return
		}
	}
	for _, r := range n.resources {
		if r.comp == nil && (r.ridx != -1 || r.load != 0 || len(r.heads) != 0) {
			mismatch("idle resource %q has ridx=%d load=%g and %d bundles", r.Name, r.ridx, r.load, len(r.heads))
			return
		}
	}

	// The partition, from scratch.
	idx := make(map[*Resource]int)
	var all []*Resource
	for _, c := range n.comps {
		for _, r := range c.res {
			idx[r] = len(all)
			all = append(all, r)
		}
	}
	parent := make([]int, len(all))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for _, c := range n.comps {
		for _, f := range c.flows {
			if len(f.path) == 0 {
				continue
			}
			i0, ok := idx[f.path[0]]
			if !ok {
				mismatch("flow %d path resource %q not owned by any component", f.id, f.path[0].Name)
				return
			}
			r0 := find(i0)
			for _, r := range f.path[1:] {
				ri, ok := idx[r]
				if !ok {
					mismatch("flow %d path resource %q not owned by any component", f.id, r.Name)
					return
				}
				if r1 := find(ri); r1 != r0 {
					parent[r1] = r0
				}
			}
		}
	}
	rootOwner := make(map[int]*component)
	for _, c := range n.comps {
		rooted := false
		root := -1
		for _, f := range c.flows {
			if len(f.path) == 0 {
				continue
			}
			r := find(idx[f.path[0]])
			if !rooted {
				rooted, root = true, r
			} else if r != root {
				mismatch("component %d holds two disconnected flow groups", c.id)
				return
			}
		}
		if !rooted {
			if len(c.flows) != 1 || len(c.res) != 0 {
				mismatch("pathless component %d has %d flows, %d resources", c.id, len(c.flows), len(c.res))
				return
			}
			continue
		}
		if o := rootOwner[root]; o != nil {
			mismatch("components %d and %d share a resource and should be one", o.id, c.id)
			return
		}
		rootOwner[root] = c
		for _, r := range c.res {
			if find(idx[r]) != root {
				mismatch("resource %q in component %d is disconnected from its flows", r.Name, c.id)
				return
			}
		}
	}

	// Exact refill per component, loads, and deadline consistency.
	for _, c := range n.comps {
		rates := shadowFill(c.flows)
		for _, f := range c.flows {
			if rates[f] != f.rate {
				mismatch("flow %d rate %g, fresh component refill says %g", f.id, f.rate, rates[f])
				return
			}
			if f.rate > 0 {
				if want := f.since + (f.size-f.done0)/f.rate; f.deadline != want {
					mismatch("flow %d deadline %g, closed form says %g", f.id, f.deadline, want)
					return
				}
			}
		}
		loads := make(map[*Resource]float64)
		for _, f := range c.flows {
			for _, r := range f.path {
				loads[r] += f.rate
			}
		}
		for _, r := range c.res {
			if loads[r] != r.load {
				mismatch("resource %q load %g, flow rates sum to %g", r.Name, r.load, loads[r])
				return
			}
		}
	}

	// The seed's algorithm: one global filling pass over everything.
	var flows []*flow
	for _, c := range n.comps {
		flows = append(flows, c.flows...)
	}
	legacy := shadowFill(flows)
	for _, f := range flows {
		if !withinRel(legacy[f], f.rate, shadowRelTol) {
			mismatch("flow %d rate %g, legacy global filling says %g", f.id, f.rate, legacy[f])
			return
		}
	}
}

// bundlesConsistent checks c's bundle bookkeeping: each listed bundle knows
// its index, each flow's bundle is listed in c and carries the flow's key,
// each m counts the flows pointing at its bundle, each bundle sits once in
// the heads of its first resource, the heads of c's resources list only c's
// bundles, and no two bundles share a key (twins would share those heads).
func (n *Net) bundlesConsistent(c *component, mismatch func(format string, args ...any)) bool {
	members := make(map[*bundle]int, len(c.bundles))
	for i, b := range c.bundles {
		if b.bidx != i {
			mismatch("bundle at %d of component %d has bidx=%d", i, c.id, b.bidx)
			return false
		}
		members[b] = 0
	}
	for _, f := range c.flows {
		b := f.bundle
		if _, ok := members[b]; !ok {
			mismatch("flow %d's bundle is not listed in component %d", f.id, c.id)
			return false
		}
		if b.cap != f.rateCap || !slices.Equal(b.path, f.path) {
			mismatch("flow %d does not match the key of its bundle in component %d", f.id, c.id)
			return false
		}
		members[b]++
	}
	for i, b := range c.bundles {
		if members[b] != b.m {
			mismatch("bundle at %d of component %d has m=%d, %d flows point at it", i, c.id, b.m, members[b])
			return false
		}
		if len(b.path) == 0 {
			continue
		}
		listed := 0
		for _, x := range b.path[0].heads {
			if x == b {
				listed++
			} else if x.cap == b.cap && slices.Equal(x.path, b.path) {
				mismatch("component %d holds two bundles with one key", c.id)
				return false
			}
		}
		if listed != 1 {
			mismatch("bundle at %d of component %d is listed %d times at %q", i, c.id, listed, b.path[0].Name)
			return false
		}
	}
	for _, r := range c.res {
		for _, x := range r.heads {
			if _, ok := members[x]; !ok || x.path[0] != r {
				mismatch("resource %q of component %d lists a bundle that is not the component's or does not start there", r.Name, c.id)
				return false
			}
		}
	}
	return true
}

func withinRel(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d == 0 {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= m*tol
}

// shadowFill runs progressive filling over an arbitrary flow set, one flow at
// a time and without touching any simulator state. Applied to one
// component's flows it must agree with fill's bundled rounds bit-for-bit;
// applied to all active flows it reproduces the seed's global one-pass
// algorithm.
func shadowFill(flows []*flow) map[*flow]float64 {
	rates := make(map[*flow]float64, len(flows))
	if len(flows) == 0 {
		return rates
	}
	type scr struct{ resid, wsum float64 }
	st := make(map[*Resource]*scr)
	var res []*Resource
	for _, f := range flows {
		for _, r := range f.path {
			s := st[r]
			if s == nil {
				s = &scr{resid: r.Capacity}
				st[r] = s
				res = append(res, r)
			}
			s.wsum++
		}
	}
	frozen := make(map[*flow]bool, len(flows))
	unfrozen := len(flows)
	level := 0.0
	const relEps = 1e-9
	for unfrozen > 0 {
		delta := math.Inf(1)
		for _, r := range res {
			if s := st[r]; s.wsum > relEps {
				if d := s.resid / s.wsum; d < delta {
					delta = d
				}
			}
		}
		for _, f := range flows {
			if !frozen[f] && f.rateCap > 0 {
				if d := f.rateCap - level; d < delta {
					delta = d
				}
			}
		}
		if math.IsInf(delta, 1) {
			for _, f := range flows {
				if !frozen[f] {
					frozen[f] = true
					rates[f] = level
				}
			}
			break
		}
		if delta < 0 {
			delta = 0
		}
		level += delta
		for _, r := range res {
			s := st[r]
			s.resid -= delta * s.wsum
		}
		frozeAny := false
		for _, f := range flows {
			if frozen[f] {
				continue
			}
			capped := f.rateCap > 0 && level >= f.rateCap*(1-relEps)
			saturated := false
			if !capped {
				for _, r := range f.path {
					if st[r].resid <= r.Capacity*relEps {
						saturated = true
						break
					}
				}
			}
			if capped || saturated {
				frozen[f] = true
				rates[f] = level
				unfrozen--
				for _, r := range f.path {
					st[r].wsum--
				}
				frozeAny = true
			}
		}
		if !frozeAny {
			for _, f := range flows {
				if !frozen[f] {
					frozen[f] = true
					rates[f] = level
					unfrozen--
				}
			}
		}
	}
	return rates
}
