package mpi

// SmallIntraNode is the selector the hierarchical personalities consult
// before giving an intra-node stretch of a collective its small-message
// form: every member of c lives on one node (and there are at least two —
// a singleton has no stretch), and n-byte messages stay under both the eager
// threshold and the fabric bypass cutoff. The answer is the same on every
// member of c, so a stretch is small on all of its ranks or on none.
func (p *Proc) SmallIntraNode(c *Comm, n int64) bool {
	return c.IntraNode() && c.Size() > 1 &&
		n < p.world.eagerThreshold && n < smallCopyCutoff
}

// BeginSmallStretch opens a small intra-node stretch (see SmallIntraNode):
// until EndSmallStretch, this rank's shm copies and local reductions are
// charged at the unloaded rate as a plain sleep instead of a fabric flow —
// the same charge an eager send's copy-in always takes below
// smallCopyCutoff.
func (p *Proc) BeginSmallStretch() { p.dp.SetBypass(true) }

// EndSmallStretch closes the stretch and charges one network latency of
// virtual time. That latency is a leftover of the retired parallel engine
// (the delay that carried a rank past its window horizon), not a cost the
// paper's model contains; it stays because every results/fig*.txt below the
// 4 KB cutoff was recorded with it, and dropping it is a model change that
// regenerates them.
func (p *Proc) EndSmallStretch() {
	p.dp.SetBypass(false)
	p.dp.Sleep(p.world.Machine.Spec.NetLatency)
}
