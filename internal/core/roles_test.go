package core

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// steps lists sh's sequence, read off a cursor as the interpreter reads it.
func steps(sh shape) []cursor {
	var out []cursor
	for c := (cursor{}); sh.at(&c); c.j++ {
		out = append(out, c)
	}
	return out
}

// countOp returns how many of ss are op.
func countOp(ss []cursor, o entry) int {
	n := 0
	for _, s := range ss {
		if s.op == o {
			n++
		}
	}
	return n
}

// checkCover reports whether the gets of ss tile [0, n) exactly once, each
// after the lookup that opens ss.
func checkCover(sh shape, ss []cursor, n int64) error {
	if len(ss) == 0 || ss[0].op != opLookup {
		return fmt.Errorf("does not open with its lookup")
	}
	type span struct{ off, n int64 }
	var got []span
	for _, s := range ss {
		if s.op == opGet {
			off, n := sh.segment(s.si)
			got = append(got, span{off, n})
		}
	}
	slices.SortFunc(got, func(a, b span) int { return int(a.off - b.off) })
	at := int64(0)
	for _, g := range got {
		if g.off != at {
			return fmt.Errorf("gets %v leave a gap or overlap at %d", got, at)
		}
		at += g.n
	}
	if at != n || len(got) == 0 {
		return fmt.Errorf("gets %v cover [0, %d), want [0, %d)", got, at, n)
	}
	return nil
}

// checkRequests reports whether every request ss posts is waited once,
// after its post and before its slot is reused.
func checkRequests(sh shape, ss []cursor) error {
	type req struct{ seg, child int32 }
	live := map[int32]req{} // slot -> request in it
	for k, s := range ss {
		r, slot := req{s.si, s.sj}, 2+s.si%3*max(sh.nch, 1)+s.sj
		switch s.op {
		case opIrecv, opIsend:
			if s.op == opIrecv {
				r.child, slot = -1, s.si%2
			}
			if old, ok := live[slot]; ok {
				return fmt.Errorf("step %d: %v reuses slot %d of %v, not waited yet", k, r, slot, old)
			}
			live[slot] = r
		case opWaitRecv, opWaitSend:
			if s.op == opWaitRecv {
				r.child, slot = -1, s.si%2
			}
			if live[slot] != r {
				return fmt.Errorf("step %d waits %v in slot %d, which holds %v", k, r, slot, live[slot])
			}
			delete(live, slot)
		}
	}
	if len(live) > 0 {
		return fmt.Errorf("requests %v never waited", live)
	}
	return nil
}

// TestRoleSequences checks the Bcast and Reduce role sequences of every
// shape with 1-5 nodes of 1-7 ranks, every root and 1-40 segments without
// simulating: each Bcast non-leader's gets tile the message once after its
// lookup; every rank of a node runs the same number of lcomm barriers; each
// node leader receives every segment once from its parent, and its parent
// sends it every segment once, the tree reaching every leader from the
// root's; each Reduce non-leader sends every segment once down its chain
// link and receives it once from upstream; and every request is waited once.
func TestRoleSequences(t *testing.T) {
	start := time.Now()
	const seg = 4 << 10
	shapes := 0
	for nseg := int64(1); nseg <= 40; nseg++ {
		n := nseg*seg - nseg%3 // a short last segment now and then
		for nodes := 1; nodes <= 5; nodes++ {
			for ppn := 1; ppn <= 7; ppn++ {
				for root := 0; root < nodes*ppn; root++ {
					rootIdx := root / ppn
					name := fmt.Sprintf("%d nodes x %d, root %d, %d segments", nodes, ppn, root, nseg)
					// sent[leader][segment] counts the segments each leader is
					// sent; senders and parents say by and from whom.
					sent := make([][]int, nodes)
					for i := range sent {
						sent[i] = make([]int, nseg)
					}
					parents, senders := make([]int, nodes), make([]int, nodes)
					for node := 0; node < nodes; node++ {
						ls := bcastShape(true, node, nodes, rootIdx, n, seg)
						lss := steps(ls)
						shapes++
						if err := checkRequests(ls, lss); err != nil {
							t.Fatalf("%s: leader of node %d: %v", name, node, err)
						}
						parents[node] = ls.link(-1)
						recvd := make([]int, nseg)
						for _, s := range lss {
							switch s.op {
							case opIsend:
								sent[ls.link(s.sj)][s.si]++
								senders[ls.link(s.sj)] = node
							case opIrecv:
								recvd[s.si]++
							}
						}
						for i, k := range recvd {
							if want := b2i(node != rootIdx); k != want {
								t.Fatalf("%s: leader of node %d receives segment %d %d times, want %d", name, node, i, k, want)
							}
						}
						if ppn == 1 {
							continue
						}
						ns := bcastShape(false, node, nodes, rootIdx, n, seg)
						nss := steps(ns)
						shapes++
						if err := checkCover(ns, nss, n); err != nil {
							t.Fatalf("%s: non-leader on node %d: %v", name, node, err)
						}
						if lb, nb := countOp(lss, opBarrier), countOp(nss, opBarrier); lb != nb {
							t.Fatalf("%s: node %d's leader runs %d lcomm barriers, its non-leaders %d", name, node, lb, nb)
						}
					}
					for node := 0; node < nodes; node++ {
						v, hops := node, 0
						for ; v != rootIdx && hops <= nodes; hops++ {
							v = parents[v]
						}
						if v != rootIdx {
							t.Fatalf("%s: node %d's leader does not reach the root's", name, node)
						}
						if node != rootIdx && senders[node] != parents[node] {
							t.Fatalf("%s: node %d's leader receives from %d, is sent to by %d", name, node, parents[node], senders[node])
						}
						for i, k := range sent[node] {
							if want := b2i(node != rootIdx); k != want {
								t.Fatalf("%s: leader of node %d is sent segment %d %d times, want %d", name, node, i, k, want)
							}
						}
					}
				}
				// Reduce: new_comm is every rank of a node but its 1st
				// leader, the 2nd leader being rank 0; the non-leaders run
				// only for pipelined messages.
				size := ppn - 1
				if nodes > 1 || nseg < 2 {
					continue // the chain does not depend on the node count
				}
				down := make([][]int, size) // down[me][segment]: sends from me to me-1
				up := make([][]int, size)   // up[me][segment]: receives at me from me+1
				for me := range down {
					down[me], up[me] = make([]int, nseg), make([]int, nseg)
				}
				for me := 1; me < size; me++ {
					sh := shape{role: reduceNonLeader, v: int32(me), size: int32(size), n: n, seg: seg, nseg: int32(segCount(n, seg))}
					ss := steps(sh)
					shapes++
					if err := checkRequests(sh, ss); err != nil {
						t.Fatalf("Reduce, %d per node, %d segments, link %d: %v", ppn, nseg, me, err)
					}
					for _, s := range ss {
						switch s.op {
						case opIsend:
							down[me][s.si]++
						case opIrecv:
							up[me][s.si]++
						}
					}
					if b := countOp(ss, opBarrier); b != 1 {
						t.Fatalf("Reduce, %d per node: link %d runs %d lcomm barriers, want 1", ppn, me, b)
					}
				}
				for me := 1; me < size; me++ {
					for i := int64(0); i < nseg; i++ {
						if down[me][i] != 1 || up[me][i] != b2i(me+1 < size) {
							t.Fatalf("Reduce, %d per node, %d segments: link %d sends segment %d %d times and receives it %d times",
								ppn, nseg, me, i, down[me][i], up[me][i])
						}
					}
				}
			}
		}
	}
	t.Logf("%d role sequences checked in %v", shapes, time.Since(start))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
