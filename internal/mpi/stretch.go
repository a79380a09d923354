package mpi

import "hierknem/internal/des"

// SmallIntraNode is the selector of the small intra-node stretch: every
// member of c lives on one node (and there are at least two — a singleton
// has no stretch), and n-byte messages are small (SmallMessage). The answer
// is the same on every member of c, so a stretch is small on all of its
// ranks or on none.
func (p *Proc) SmallIntraNode(c *Comm, n int64) bool {
	return c.IntraNode() && c.Size() > 1 && p.SmallMessage(n)
}

// SmallMessage reports whether n-byte messages stay under both the eager
// threshold and the fabric bypass cutoff: SmallIntraNode's size test, which
// a caller can ask before it has the communicator.
func (p *Proc) SmallMessage(n int64) bool {
	return n < p.world.eagerThreshold && n < smallCopyCutoff
}

// BeginSmallStretch opens a small intra-node stretch if SmallIntraNode(c, n)
// holds: until EndSmallStretch, this rank's shm copies and local reductions
// are charged at the unloaded rate as a plain sleep instead of a fabric
// flow — the charge an eager send's copy-in always takes below
// smallCopyCutoff. Opening one inside an open stretch panics.
func (p *Proc) BeginSmallStretch(c *Comm, n int64) {
	if p.dp.Bypass() {
		panic("mpi: BeginSmallStretch inside an open small stretch")
	}
	p.dp.SetBypass(p.SmallIntraNode(c, n))
}

// EndSmallStretch runs CloseSmallStretch on the rank.
func (p *Proc) EndSmallStretch() { p.dp.Suspend(p.CloseSmallStretch()) }

// CloseSmallStretch closes an open stretch and returns the one network
// latency it charges as a wait; with none open it returns Done. That
// latency is a leftover of the retired parallel engine (the delay that
// carried a rank past its window horizon), not a cost the paper's model
// contains; it stays because every results/fig*.txt below the 4 KB cutoff
// was recorded with it, and dropping it is a model change that regenerates
// them.
func (p *Proc) CloseSmallStretch() des.Wait {
	if !p.dp.Bypass() {
		return des.Done
	}
	p.dp.SetBypass(false)
	return des.SleepFor(p.world.Machine.Spec.NetLatency)
}
