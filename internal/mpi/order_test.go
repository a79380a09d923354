package mpi

import (
	"fmt"
	"strings"
	"testing"

	"hierknem/internal/buffer"
)

// These tables pin the MPI matching-order semantics the indexed queues must
// preserve: a send matches the OLDEST posting of its (ctx, src, tag) key and
// a receive the OLDEST arrival of its key, while distinct keys — another tag
// or another source — never wait on each other. Every case uses equal-size
// eager messages, and payload bytes identify which send landed in which
// posting.

// orderRecv is one posted receive.
type orderRecv struct {
	src, tag int
}

// orderSend is one send issued by rank `from`, in table order.
type orderSend struct {
	from, tag int
}

// orderCase is one scenario. want[i] is the send index whose payload
// posting i must receive.
type orderCase struct {
	name  string
	recvs []orderRecv
	sends []orderSend
	want  []int
}

const orderMsgSize = 64 // eager everywhere; all sends the same size

func orderPayload(id int) []byte {
	d := make([]byte, orderMsgSize)
	for i := range d {
		d[i] = byte(id)
	}
	return d
}

// runOrderCase executes the scenario on a fresh fuzz world. When preposted
// is true rank 0 posts all receives before any send is issued; otherwise
// every send is parked in the unexpected queue before the first post.
func runOrderCase(t *testing.T, preposted bool, tc orderCase) {
	t.Helper()
	if len(tc.want) != len(tc.recvs) {
		t.Fatalf("bad table: %d recvs but %d expectations", len(tc.recvs), len(tc.want))
	}
	w := fuzzWorld(t)
	bufs := make([]*buffer.Buffer, len(tc.recvs))
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		me := c.Rank(p)
		post := func() {
			reqs := make([]*Request, len(tc.recvs))
			for i, r := range tc.recvs {
				bufs[i] = buffer.NewReal(make([]byte, orderMsgSize))
				reqs[i] = p.Irecv(c, bufs[i], r.src, r.tag)
			}
			p.WaitAll(reqs...)
		}
		send := func() {
			// Sends stagger by table order so multi-sender arrival
			// order is fixed by the table, not by scheduler
			// happenstance.
			for k, s := range tc.sends {
				if s.from != me {
					continue
				}
				p.Compute(float64(k) * 1e-6)
				p.Send(c, buffer.NewReal(orderPayload(k)), 0, s.tag)
			}
		}
		if preposted {
			if me == 0 {
				post()
			} else {
				p.Compute(1e-3) // receives are in place before any send
				send()
			}
		} else {
			if me == 0 {
				p.Compute(1e-3) // every send arrives unexpected
				post()
			} else {
				send()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range tc.want {
		got := bufs[i].Data()[0]
		if got != byte(k) {
			t.Errorf("posting %d received payload %d, want send %d", i, got, k)
		}
	}
}

func TestMatchingOrder(t *testing.T) {
	cases := []orderCase{
		{
			// Two postings of one key drain its sends in posting order.
			name:  "same_key_fifo",
			recvs: []orderRecv{{1, 5}, {1, 5}},
			sends: []orderSend{{1, 5}, {1, 5}},
			want:  []int{0, 1},
		},
		{
			// Specific postings for distinct tags are independent queues;
			// sends route by tag, not posting order.
			name:  "specific_queues_independent",
			recvs: []orderRecv{{1, 7}, {1, 3}},
			sends: []orderSend{{1, 3}, {1, 7}},
			want:  []int{1, 0},
		},
		{
			// Two senders staggered in time, posted for in the opposite
			// order: each posting takes the send of the source it names.
			name:  "two_sources_by_name",
			recvs: []orderRecv{{2, 1}, {1, 0}},
			sends: []orderSend{{1, 0}, {2, 1}},
			want:  []int{1, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/preposted", func(t *testing.T) {
			runOrderCase(t, true, tc)
		})
	}

	// The unexpected-queue mirror: sends arrive first, and each posting then
	// takes the oldest arrival of its key.
	unexpected := []orderCase{
		{
			name:  "same_key_takes_oldest_arrival",
			recvs: []orderRecv{{1, 4}, {1, 4}},
			sends: []orderSend{{1, 4}, {1, 4}},
			want:  []int{0, 1},
		},
		{
			name:  "specific_skips_other_keys",
			recvs: []orderRecv{{1, 6}, {1, 4}},
			sends: []orderSend{{1, 4}, {1, 6}},
			want:  []int{1, 0},
		},
		{
			name:  "two_sources_by_name",
			recvs: []orderRecv{{2, 0}, {1, 0}},
			sends: []orderSend{{1, 0}, {2, 0}},
			want:  []int{1, 0},
		},
	}
	for _, tc := range unexpected {
		t.Run(tc.name+"/unexpected", func(t *testing.T) {
			runOrderCase(t, false, tc)
		})
	}

	// The wildcard scenarios this table ran before receives lost AnySource
	// and AnyTag keep their names: each checks that Irecv refuses the
	// scenario's first -1 receive.
	for _, tc := range []struct {
		name     string
		src, tag int
	}{
		{"specific_before_wildcard/preposted", -1, -1},
		{"wildcard_before_specific/preposted", -1, -1},
		{"wildcards_fifo/preposted", -1, -1},
		{"half_wild_seniority/preposted", -1, 5},
		{"anysource_race/preposted", -1, -1},
		{"wildcard_takes_oldest_arrival/unexpected", -1, -1},
		{"wildcard_then_specific_drain/unexpected", -1, -1},
		{"anysource_arrival_race/unexpected", -1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantRefused(t, func(p *Proc, c *Comm) {
				p.Irecv(c, buffer.NewPhantom(8), tc.src, tc.tag)
			}, fmt.Sprintf("rank0 Irecv from source %d with tag %d", tc.src, tc.tag))
		})
	}
}

// wantRefused runs op on rank 0 of a two-rank world and checks that it
// panics with a message naming want and the communicator's size.
func wantRefused(t *testing.T, op func(p *Proc, c *Comm), want string) {
	t.Helper()
	w := newToyWorld(t, 1, 1, 2, 2)
	var got string
	func() {
		defer func() { got = fmt.Sprint(recover()) }()
		_ = w.Run(func(p *Proc) {
			if p.Rank() == 0 {
				op(p, w.WorldComm())
			}
		})
	}()
	if !strings.Contains(got, want) || !strings.Contains(got, "2-rank communicator") {
		t.Fatalf("panicked with %q, want it to name %q and the communicator size", got, want)
	}
}

// TestIrecvChecksSourceAndTag: a receive names a rank of its communicator
// and a non-negative tag. Anything else panics in Irecv with a message
// naming the rank, the source, the tag and the communicator's size, instead
// of posting a receive no send can match.
func TestIrecvChecksSourceAndTag(t *testing.T) {
	for _, tc := range []struct {
		name     string
		src, tag int
	}{
		{"source past the end", 2, 3},
		{"negative source", -5, 0},
		{"negative tag", 1, -2},
		{"any source", -1, 0},
		{"any tag", 1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantRefused(t, func(p *Proc, c *Comm) {
				p.Recv(c, buffer.NewPhantom(8), tc.src, tc.tag)
			}, fmt.Sprintf("rank0 Irecv from source %d with tag %d", tc.src, tc.tag))
		})
	}
}

// TestIsendChecksDestinationAndTag is the send-side mirror: a send no
// receive could match panics in Isend, not as a deadlock far from the call.
func TestIsendChecksDestinationAndTag(t *testing.T) {
	for _, tc := range []struct {
		name     string
		dst, tag int
	}{
		{"destination past the end", 2, 3},
		{"negative destination", -1, 0},
		{"negative tag", 1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantRefused(t, func(p *Proc, c *Comm) {
				p.Isend(c, buffer.NewPhantom(8), tc.dst, tc.tag)
			}, fmt.Sprintf("rank0 Isend to destination %d with tag %d", tc.dst, tc.tag))
		})
	}
}
