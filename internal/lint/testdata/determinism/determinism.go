// Package determinism is a hierlint golden fixture. Every line carrying a
// `// want` comment is a deliberate violation of the determinism analyzer;
// the remaining functions are clean counterparts that must not be flagged.
package determinism

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// wallClock reads and waits on the host clock three different ways.
func wallClock() float64 {
	start := time.Now()                // want `time\.Now depends on the host clock`
	time.Sleep(time.Millisecond)       // want `time\.Sleep depends on the host clock`
	return time.Since(start).Seconds() // want `time\.Since depends on the host clock`
}

// timerLeak uses the timer constructors.
func timerLeak() {
	t := time.NewTimer(time.Second) // want `time\.NewTimer depends on the host clock`
	<-t.C
	<-time.After(time.Second) // want `time\.After depends on the host clock`
}

// globalRand draws from the shared unseeded source.
func globalRand() int {
	rand.Shuffle(3, func(i, j int) {}) // want `rand\.Shuffle draws from the global unseeded source`
	return rand.Intn(10)               // want `rand\.Intn draws from the global unseeded source`
}

// seededRand constructs an explicit generator: the sanctioned pattern.
func seededRand(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// mapOrdered prints while ranging a map: emission order varies per run.
func mapOrdered(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `fmt\.Println inside range over map emits in nondeterministic order`
	}
}

// mapSorted collects, sorts, then prints: deterministic and unflagged.
func mapSorted(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}

// durationMath uses time only for unit arithmetic, which is allowed: no
// clock is observed.
func durationMath(n int) time.Duration {
	return time.Duration(n) * time.Microsecond
}
