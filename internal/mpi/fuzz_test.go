package mpi

import (
	"bytes"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/topology"
)

// FuzzMatch drives randomized Isend/Irecv/WaitAll schedules through the
// point-to-point matching machinery — exact-key matching, eager and
// rendezvous, preposted and unexpected arrivals — and asserts the runtime's
// hard invariants on every schedule:
//
//   - no deadlock;
//   - no message is lost, duplicated or delivered to the wrong receive
//     (payload bytes are verified);
//   - request hygiene: the posted-receive and unexpected-message queues of
//     every rank drain to empty.
//
// The input bytes are decoded into a *matched* plan (every send has exactly
// one matching receive), so any hang the fuzzer finds is a runtime bug, not
// an ill-formed program. Two global modes: mode A gives every pair its own
// tag and size, so each receive has exactly one candidate send; mode B gives
// all pairs between one (src, dst) one tag and one size, so a receive may
// match any of them, and the receiver must see their payloads in send order
// (MPI's non-overtaking rule, which the matching chains alone carry).

const (
	fuzzNP       = 4
	fuzzMaxPairs = 48
)

func fuzzWorld(t testing.TB) *World {
	m, err := topology.Build(topology.Spec{
		Name:              "fuzz",
		Nodes:             2,
		SocketsPerNode:    1,
		CoresPerSocket:    2,
		MemBandwidth:      10e9,
		CoreCopyBandwidth: 3e9,
		L3Bandwidth:       6e9,
		L3Size:            12 << 20,
		ShmLatency:        1e-6,
		NetBandwidth:      1e9,
		NetLatency:        10e-6,
		NetFullDuplex:     true,
		EagerThreshold:    4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := topology.ByCore(m, fuzzNP)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(m, b, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// fuzzPair is one matched send/receive.
type fuzzPair struct {
	src, dst  int
	tag       int
	size      int64
	deferRecv bool // receiver posts this Irecv after its Isends
}

// decodePlan turns fuzz bytes into a matched plan. Byte 0 selects the mode;
// each subsequent 3-byte group describes one pair. In mode B every
// pair between one (src, dst) takes the tag and size of the first.
func decodePlan(data []byte) (pairs []fuzzPair) {
	if len(data) == 0 {
		return nil
	}
	sameKey := data[0]&1 == 1
	data = data[1:]
	first := map[[2]int]fuzzPair{}
	for i := 0; i+2 < len(data) && len(pairs) < fuzzMaxPairs; i += 3 {
		src := int(data[i]) % fuzzNP
		dst := int(data[i+1]) % fuzzNP
		if dst == src {
			dst = (src + 1) % fuzzNP
		}
		p := fuzzPair{
			src:       src,
			dst:       dst,
			tag:       len(pairs), // unique per pair in mode A
			deferRecv: data[i+2]&2 != 0,
			// Sizes straddle the 4096B eager threshold: both protocols.
			size: int64(data[i+2])*37 + 1,
		}
		if sameKey {
			key := [2]int{src, dst}
			if f, ok := first[key]; ok {
				p.tag, p.size = f.tag, f.size
			} else {
				first[key] = p
			}
		}
		pairs = append(pairs, p)
	}
	return pairs
}

// fuzzPattern is the payload for pair k: a function of the pair, never of
// the schedule, so delivery can be verified byte for byte.
func fuzzPattern(k int, size int64) []byte {
	d := make([]byte, size)
	for i := range d {
		d[i] = byte((k*131 + i*29 + 17) % 251)
	}
	return d
}

func FuzzMatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("0ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghij")) // mode A, small sizes
	f.Add([]byte("1zyxwvutsrqponmlkjihgfedcba9876543210")) // mode B
	f.Add([]byte{0, 1, 2, 0xff, 3, 0, 0xfe, 1, 3, 0xfd})   // mode A, rendezvous sizes
	f.Add([]byte{1, 0, 1, 3, 1, 2, 3, 2, 3, 1, 3, 0, 2})   // mode B, fan-in to one rank

	f.Fuzz(func(t *testing.T, data []byte) {
		pairs := decodePlan(data)
		w := fuzzWorld(t)

		// got[k] is the buffer of the receive that pair k's send must land
		// in: the i-th receive a rank posts for a (src, tag) key takes the
		// i-th send of that key.
		got := make([]*buffer.Buffer, len(pairs))
		type key struct{ src, dst, tag int }
		sent := map[key][]int{} // sends of each key, in send order
		for k, pair := range pairs {
			kk := key{pair.src, pair.dst, pair.tag}
			sent[kk] = append(sent[kk], k)
		}
		err := w.Run(func(p *Proc) {
			c := w.WorldComm()
			me := c.Rank(p)
			var reqs []*Request
			posted := map[key]int{}
			post := func(pair fuzzPair) {
				buf := buffer.NewReal(make([]byte, pair.size))
				kk := key{pair.src, me, pair.tag}
				got[sent[kk][posted[kk]]] = buf
				posted[kk]++
				reqs = append(reqs, p.Irecv(c, buf, pair.src, pair.tag))
			}
			var deferred []int
			for k, pair := range pairs {
				if pair.dst == me && !pair.deferRecv {
					post(pair)
				}
				if pair.src == me {
					sbuf := buffer.NewReal(fuzzPattern(k, pair.size))
					reqs = append(reqs, p.Isend(c, sbuf, pair.dst, pair.tag))
				}
				if pair.dst == me && pair.deferRecv {
					deferred = append(deferred, k)
				}
			}
			for _, k := range deferred {
				post(pairs[k])
			}
			p.WaitAll(reqs...)
		})
		if err != nil {
			t.Fatalf("runtime stalled on a matched plan: %v", err)
		}

		for rank := 0; rank < fuzzNP; rank++ {
			p := w.Proc(rank)
			if p.posted.count != 0 {
				t.Fatalf("rank %d: %d posted receives leaked", rank, p.posted.count)
			}
			if p.unexpected.count != 0 {
				t.Fatalf("rank %d: %d unexpected messages leaked", rank, p.unexpected.count)
			}
		}
		for k, pair := range pairs {
			if !bytes.Equal(got[k].Data(), fuzzPattern(k, pair.size)) {
				t.Fatalf("pair %d (%d->%d, tag %d, %dB): payload lost, corrupted or overtaken",
					k, pair.src, pair.dst, pair.tag, pair.size)
			}
		}
	})
}
