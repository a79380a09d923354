package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// layers are the buckets of the cpu_share metrics: the packages under
// hierknem/internal the workloads run, and runtime for everything else.
var layers = []string{"des", "hier", "mpi", "fabric", "core", "coll", "modules", "knem", "shm",
	"topology", "buffer", "imb", "asp", "runtime"}

const internalPrefix = "hierknem/internal/"

// layerOf charges a stack (function names, leaf first) to the innermost
// frame that belongs to a layer: that layer's self time including the
// runtime work it causes. Stacks with no such frame — the scheduler, the
// collector, the harness — go to runtime.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			if slices.Contains(layers, pkg) {
				return pkg
			}
		}
	}
	return "runtime"
}

// runtimeKinds name what the Go runtime was doing, by function-name prefix.
var runtimeKinds = []struct {
	kind     string
	prefixes []string
}{
	{"gc", []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcMarkTermination"}},
	{"malloc", []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice", "runtime.gcAssistAlloc"}},
	{"map", []string{"runtime.mapassign", "runtime.mapaccess", "runtime.mapiter", "runtime.makemap", "runtime.mapdelete", "runtime.mapclear", "internal/runtime/maps."}},
	{"sched", []string{"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.schedule", "runtime.park_m", "runtime.mcall",
		"runtime.chansend", "runtime.chanrecv", "runtime.findRunnable", "runtime.goexit0", "runtime.newproc", "runtime.gosched"}},
}

// runtimeKind classifies the runtime work at the leaf of a stack: the
// outermost runtime entry point below the innermost non-runtime frame, so a
// map insert that grows and allocates counts as map, and an allocation that
// assists the collector counts as malloc. "" means none of the four.
func runtimeKind(stack []string) string {
	kind := ""
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "internal/runtime/") {
			break
		}
		for _, k := range runtimeKinds {
			for _, p := range k.prefixes {
				if strings.HasPrefix(fn, p) {
					kind = k.kind
				}
			}
		}
	}
	return kind
}

// profileShares turns a pprof CPU profile into the cpu_share metrics. The
// layer shares sum to one.
func profileShares(gz []byte) (map[string]float64, error) {
	stacks, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, l := range layers {
		out[l+".cpu_share"] = 0
	}
	for _, k := range runtimeKinds {
		out["runtime."+k.kind+"_share"] = 0
	}
	var total float64
	for _, s := range stacks {
		total += s.value
	}
	if total == 0 {
		return nil, errors.New("no samples")
	}
	for _, s := range stacks {
		out[layerOf(s.funcs)+".cpu_share"] += s.value / total
		if k := runtimeKind(s.funcs); k != "" {
			out["runtime."+k+"_share"] += s.value / total
		}
	}
	return out, nil
}

type stackSample struct {
	funcs []string // leaf first, inlined frames expanded
	value float64  // CPU nanoseconds
}

// parseProfile decodes the parts of the gzipped profile.proto that CPU
// attribution needs: samples, locations, functions and the string table.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{value: float64(s.values[len(s.values)-1])} // cpu/nanoseconds is the last sample type
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message: v carries varint and fixed values, b
// carries length-delimited ones.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n == 0 {
			return errors.New("truncated field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = uvarint(msg); n == 0 {
				return errors.New("truncated varint")
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if key&7 == 5 {
				size = 4
			}
			if len(msg) < size {
				return errors.New("truncated fixed field")
			}
			for i := size - 1; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[size:]
		case 2:
			l, n := uvarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated bytes field")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated integer field in either encoding: one
// value, or a packed run.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// uvarint is binary.Uvarint with every failure reported as n == 0.
func uvarint(b []byte) (uint64, int) {
	x, n := binary.Uvarint(b)
	return x, max(n, 0)
}
