package core

import (
	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/hier"
	"hierknem/internal/knem"
	"hierknem/internal/mpi"
)

// reduceShare is posted by the 1st leader: its send buffer (read access,
// fetched by the 2nd leader) and its staging buffer (write access, pushed by
// the 2nd leader), registered under one syscall charge.
type reduceShare struct {
	src, dst share
}

// reduceToLeader folds every local rank's sbuf into acc, significant at the
// node leader only, up a binomial tree over lcomm, as a small stretch
// (mpi.SmallIntraNode) when the message fits the fabric bypass.
func reduceToLeader(p *mpi.Proc, hy *hier.Hierarchy, a coll.ReduceArgs, sbuf, acc *buffer.Buffer) {
	lcomm := hy.LComm
	p.BeginSmallStretch(lcomm, sbuf.Len())
	if lcomm.Size() > 1 {
		coll.ReduceBinomial(p, lcomm, a, sbuf, acc, 0, 0)
	} else if hy.IsLeader {
		acc.CopyFrom(sbuf)
	}
	p.EndSmallStretch()
}

// Reduce implements Algorithm 2 of the paper: the double-leader pipelined
// reduction.
//
// On every node the 1st leader dedicates itself to the inter-node reduction
// while the 2nd leader drives the intra-node one: per pipeline segment it
// fetches the 1st leader's contribution with a one-sided KNEM get, folds in
// its own, runs the reduction over new_comm (all local ranks except the 1st
// leader), pushes the result into the 1st leader's staging buffer with a
// KNEM put, and notifies. The 1st leader then reduces that segment across
// nodes — so the intra-node reduction of segment i+1 overlaps the
// inter-node reduction of segment i.
//
// The non-leaders only take part in the reduction over new_comm and wait,
// so each runs its whole part of the call, the hierarchy's construction
// included, through the role interpreter (roles.go) and is switched into
// once per call; the two leaders build the hierarchy in that same stepped
// wait and run on process-style.
func (m *Module) Reduce(p *mpi.Proc, c *mpi.Comm, a coll.ReduceArgs, sbuf, rbuf *buffer.Buffer, root int) {
	if c.Size() == 1 {
		rbuf.CopyFrom(sbuf)
		return
	}
	seg := segmentSize("ReducePipeline", m.Opt.ReducePipeline, sbuf.Len())
	nseg := segCount(sbuf.Len(), seg)
	spec := &p.World().Machine.Spec
	isRoot := c.Rank(p) == root

	// Small messages (a single pipeline segment) take a lean path: the
	// double-leader machinery (registrations, notifications, new_comm)
	// costs more than it hides at these sizes. A plain binomial reduce to
	// the leader plus the inter-node reduction matches what the adaptive
	// framework selects below the pipelining regime.
	if nseg == 1 {
		var scratch hier.Hierarchy
		hy := m.hierarchy(p, c, root, &scratch)
		var acc *buffer.Buffer
		if hy.IsLeader {
			if isRoot {
				acc = rbuf
			} else {
				acc = coll.Like(sbuf, sbuf.Len())
			}
		}
		reduceToLeader(p, hy, a, sbuf, acc)
		if hy.IsLeader && hy.LLComm.Size() > 1 {
			var out *buffer.Buffer
			if isRoot {
				out = rbuf
			}
			coll.ReduceBinomial(p, hy.LLComm, a, acc, out,
				hy.RootNodeIndex, m.Opt.ReducePerHop)
		}
		return
	}

	// lcomm is the node's communicator; other is the 1st leader's llcomm or
	// the 2nd leader's new_comm.
	var lcomm, other *mpi.Comm
	sh := shape{role: reduceNonLeader, root: int32(root), n: sbuf.Len(), seg: seg, nseg: int32(nseg)}
	if m.Opt.CacheTopology {
		hy := m.hierarchy(p, c, root, nil)
		newComm := hy.NewComm(p)
		lcomm, other = hy.LComm, newComm
		switch lcomm.Rank(p) {
		case 0:
			other = hy.LLComm
		case 1:
		default:
			lcomm.Seq(p) // every rank keeps lcomm's call count, which a cached lcomm's keys read
			sh.v, sh.size = int32(newComm.Rank(p)), int32(newComm.Size())
			run(p, sh, lcomm, newComm, sbuf, nil, a, 0)
			return
		}
	} else if lcomm, other = build(p, sh, c, m.Opt.TopoDetectCost, sbuf, nil, a); lcomm.Rank(p) > 1 {
		return
	}
	key := mpi.BBKey{Op: "hkreduce", Seq: lcomm.Seq(p)}

	switch lcomm.Rank(p) {
	case 0:
		// --- 1st leader ---
		haveSecond := lcomm.Size() >= 2
		p.Compute(spec.ShmLatency) // registration syscall
		tmp := coll.Like(sbuf, sbuf.Len())
		var sh reduceShare
		if haveSecond {
			dev := p.Knem()
			sh = reduceShare{
				src: share{dev: dev, ck: dev.Register(sbuf, p.Core(), knem.RightRead)},
				dst: share{dev: dev, ck: dev.Register(tmp, p.Core(), knem.RightWrite)},
			}
			lcomm.BBPost(key, sh)
		} else {
			// Alone on the node: my contribution goes up directly.
			tmp.CopyFrom(sbuf)
		}

		// Inter-node topology: like the Broadcast, deep pipelines reduce
		// along a fan-in-1 chain (the root ingests the data exactly once,
		// at full link bandwidth), shallow ones up a binomial tree.
		ll, rootNode := other, c.NodeIndex(root)
		llSize := ll.Size()
		useChain := llSize > 1 && nseg >= chainMinSegs
		var chainV int // virtual position: data flows v=llSize-1 -> v=0 (root)
		var chainUp, chainDown int
		chainRecvs := false
		var partial [2]*buffer.Buffer
		var rreq [2]*mpi.Request
		if useChain {
			me := ll.Rank(p)
			chainV = (me - rootNode + llSize) % llSize
			chainUp = (rootNode + chainV + 1) % llSize   // my upstream
			chainDown = (rootNode + chainV - 1) % llSize // toward root
			chainRecvs = chainV != llSize-1
			if chainRecvs {
				// Ping-pong prepost: one segment's receive always in
				// flight ahead of the pipeline, so rendezvous transfers
				// start without a handshake round trip.
				partial[0] = coll.Like(sbuf, seg)
				partial[1] = coll.Like(sbuf, seg)
				_, n0 := mpi.SegmentBounds(sbuf.Len(), seg, 0)
				rreq[0] = p.Irecv(ll, partial[0].Slice(0, n0), chainUp, hkTag+(1<<16))
			}
		}

		// Inter-node pipelined reduction: per segment, wait for the local
		// contribution, then reduce across leaders.
		for i := int64(0); i < nseg; i++ {
			off, n := mpi.SegmentBounds(sbuf.Len(), seg, i)
			if haveSecond {
				// Step 3: wait for the 2nd leader's push notification.
				p.Recv(lcomm, buffer.NewPhantom(0), 1, hkTag+1000+int(i))
			}
			var out *buffer.Buffer
			if isRoot {
				out = rbuf.Slice(off, n)
			}
			switch {
			case useChain:
				acc := tmp.Slice(off, n)
				perHop := m.Opt.ReducePerHop
				if n < coll.ReduceDefectMin {
					perHop = 0
				}
				if chainRecvs {
					if i+1 < nseg {
						_, nn := mpi.SegmentBounds(sbuf.Len(), seg, i+1)
						rreq[(i+1)%2] = p.Irecv(ll, partial[(i+1)%2].Slice(0, nn),
							chainUp, hkTag+(1<<16)+int(i+1))
					}
					p.Wait(rreq[i%2])
					p.ReduceLocal(a.Op, a.Dtype, acc, partial[i%2].Slice(0, n))
				}
				if chainV != 0 {
					if perHop > 0 {
						p.Compute(perHop)
					}
					p.Send(ll, acc, chainDown, hkTag+(1<<16)+int(i))
				} else if isRoot {
					out.CopyFrom(acc)
				}
			case llSize > 1:
				coll.ReduceBinomial(p, ll, a, tmp.Slice(off, n), out,
					rootNode, m.Opt.ReducePerHop)
			case isRoot:
				out.CopyFrom(tmp.Slice(off, n))
			}
		}
		lcomm.Barrier(p)
		if haveSecond {
			p.Compute(spec.ShmLatency)
			sh.src.clear(lcomm, key)
			if err := sh.dst.dev.Deregister(sh.dst.ck); err != nil {
				panic(err)
			}
		}

	case 1:
		// --- 2nd leader ---
		sh := lcomm.BBWaitAfter(p, spec.ShmLatency, key).(reduceShare) // cookie lookup
		fetch := coll.Like(sbuf, seg)
		for i := int64(0); i < nseg; i++ {
			off, n := mpi.SegmentBounds(sbuf.Len(), seg, i)
			fseg := fetch.Slice(0, n)
			// Step 9: fetch the 1st leader's segment (one-sided).
			sh.src.get(p, off, fseg)
			// Step 10: fold in my own contribution.
			p.ReduceLocal(a.Op, a.Dtype, fseg, sbuf.Slice(off, n))
			// Step 11: intra-node reduction over new_comm (I am root 0).
			// A fan-in-1 chain keeps the 2nd leader's per-segment work
			// constant; consecutive segments pipeline down the chain.
			if newComm := other; newComm != nil && newComm.Size() > 1 {
				acc := coll.Like(sbuf, n)
				coll.ReduceChain(p, newComm, a, fseg, acc, 0, 0, 0)
				fseg.CopyFrom(acc)
			}
			// Step 12: push the result into the 1st leader's staging
			// buffer (one-sided) and notify (step 13).
			sh.dst.put(p, off, fseg)
			p.Send(lcomm, buffer.NewPhantom(0), 0, hkTag+1000+int(i))
		}
		lcomm.Barrier(p)
	}
}
