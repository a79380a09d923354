package main

import (
	"fmt"
	"math"
)

// verdict is the comparator's finding for one metric on one workload.
type verdict string

const (
	same       verdict = "same"       // exact metric, identical
	within     verdict = "ok"         // inside the bound
	better     verdict = "better"     // beyond the bound, in the good direction
	worse      verdict = "WORSE"      // beyond the bound, in the bad direction
	unresolved verdict = "unresolved" // a set's own spread exceeds the bound
	missing    verdict = "MISSING"
)

// judge applies one end-to-end metric's bound to a base and a new reading.
// change is the relative worsening (positive is worse). Metrics that repeat
// exactly compare exactly; host-time metrics whose split-half spread in
// either set exceeds the bound are unresolved, never "unchanged".
func judge(def metricDef, base, next metric) (v verdict, change float64) {
	change = (next.Value - base.Value) / base.Value
	if def.Better == "higher" {
		change = -change
	}
	switch {
	case def.Bound <= exact && next.Value == base.Value:
		return same, 0
	case def.Bound > exact && math.Max(base.Spread, next.Spread) > def.Bound:
		return unresolved, change
	case change > def.Bound:
		return worse, change
	case change < -def.Bound:
		return better, change
	}
	return within, change
}

// report prints the comparison of two untraced sets and returns the exit
// code: 0 when no metric got worse, 1 when one did or an op failed, 3 when
// nothing got worse but a set was noisy or a metric is unresolved. With
// symmetric set (selfcheck: two sets of one tree) a change in either
// direction beyond the bound counts as a disagreement.
func report(base, next *set, symmetric bool) int {
	bad, open := 0, 0
	if base.Noisy || next.Noisy {
		open++
		fmt.Printf("NOISY: host.calib_spread %.3f (base) and %.3f (new) — above 1.10 the host was not quiet and host times are not comparable\n",
			base.CalibSpread, next.CalibSpread)
	}
	fmt.Printf("%-16s %-18s %14s %14s %9s  %s\n", "workload", "metric", "base", "new", "change", "verdict")
	for _, name := range base.Order {
		a, b := base.Workloads[name], next.Workloads[name]
		if b == nil {
			fmt.Printf("%-16s %s\n", name, missing)
			bad++
			continue
		}
		if a.Failed > 0 || b.Failed > 0 {
			fmt.Printf("%-16s failed ops: %d of %d (base), %d of %d (new)\n", name, a.Failed, a.Attempted, b.Failed, b.Attempted)
			bad++
		}
		for _, def := range endToEnd {
			ma, okA := a.Metrics[def.Name]
			mb, okB := b.Metrics[def.Name]
			if !okA || !okB {
				fmt.Printf("%-16s %-18s %s\n", name, def.Name, missing)
				bad++
				continue
			}
			v, change := judge(def, ma, mb)
			switch {
			case v == worse, symmetric && v == better:
				bad++
				v = worse
			case v == unresolved:
				open++
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %+8.2f%%  %s\n", name, def.Name, ma.Value, mb.Value, 100*change, v)
		}
	}
	switch {
	case bad > 0:
		fmt.Printf("FAIL: %d metric(s) outside their bounds\n", bad)
		return 1
	case open > 0:
		fmt.Printf("UNRESOLVED: nothing outside its bound, but %d finding(s) above could not be resolved on this host; run again\n", open)
		return 3
	}
	fmt.Println("PASS: every metric within its bound")
	return 0
}
