package clusters

import (
	"os"
	"testing"
	"time"

	"hierknem/internal/imb"
)

// TestShapeProbe is a development-time scale probe, enabled with
// HIERKNEM_PROBE=1; the real experiment drivers live in cmd/hierbench and
// the top-level benchmarks.
func TestShapeProbe(t *testing.T) {
	if os.Getenv("HIERKNEM_PROBE") == "" {
		t.Skip("set HIERKNEM_PROBE=1 to run the scale probe")
	}
	for _, cluster := range []string{"stremi", "parapluie"} {
		spec := Stremi(32)
		if cluster == "parapluie" {
			spec = Parapluie(32)
		}
		for _, size := range []int64{8 << 10, 64 << 10, 256 << 10, 2 << 20, 8 << 20} {
			for _, mod := range Lineup(&spec) {
				w, err := NewWorld(spec, "bycore", 768)
				if err != nil {
					t.Fatal(err)
				}
				t0 := time.Now()
				r := imb.Bcast(w, mod, size, imb.Opts{Iterations: 2, Warmup: 1, RotateRoot: true})
				t.Logf("%-10s wall=%8v %v", cluster, time.Since(t0).Round(time.Millisecond), r)
			}
		}
	}
}
