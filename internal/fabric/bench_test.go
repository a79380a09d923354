package fabric

import (
	"testing"

	"hierknem/internal/des"
)

// BenchmarkManyFlowsOneLink measures the simulator's cost for the classic
// contention scenario: many flows arriving on one shared link.
func BenchmarkManyFlowsOneLink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := des.New()
		n := NewNet(e)
		link := n.NewResource("link", 1e9)
		for f := 0; f < 256; f++ {
			n.StartAfter("", float64(f)*1e-6, 1e6, 0, []*Resource{link}, nil)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossTrafficMesh measures progressive filling with flows crossing
// multiple shared resources (the collective-benchmark hot path).
func BenchmarkCrossTrafficMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := des.New()
		n := NewNet(e)
		const nodes = 32
		buses := make([]*Resource, nodes)
		nics := make([]*Resource, nodes)
		for j := range buses {
			buses[j] = n.NewResource("bus", 10e9)
			nics[j] = n.NewResource("nic", 1e9)
		}
		for f := 0; f < 512; f++ {
			src, dst := f%nodes, (f+7)%nodes
			path := []*Resource{buses[src], nics[src], nics[dst], buses[dst]}
			n.StartAfter("", float64(f%16)*1e-6, 5e5, 3e9, path, nil)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineEventThroughput measures raw event dispatch.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := des.New()
	count := 0
	var schedule func()
	schedule = func() {
		count++
		if count < b.N {
			e.After(1e-9, schedule)
		}
	}
	e.After(1e-9, schedule)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcessHandoff measures the park/resume cost per simulated
// process step — the dominant cost of large-rank-count simulations.
func BenchmarkProcessHandoff(b *testing.B) {
	e := des.New()
	e.Spawn("walker", func(p *des.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1e-9)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
