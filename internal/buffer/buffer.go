// Package buffer provides the message payloads moved by the simulated MPI
// runtime.
//
// Buffers come in two flavors. Real buffers carry actual bytes, so
// correctness tests can verify that a collective delivers bit-identical data
// and that reductions compute the right values. Phantom buffers carry only a
// size: benchmark runs over 768 ranks and multi-megabyte messages would
// otherwise need gigabytes of host memory. Both flavors cost identical
// virtual time — the simulator charges transfers by size, never by content.
package buffer

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

var nextID atomic.Uint64

// Buffer is a (possibly phantom) contiguous message buffer. A Buffer created
// by Slice shares the parent's identity (for cache-residency modeling) and,
// when real, the parent's backing bytes.
type Buffer struct {
	id   uint64
	off  int64
	size int64
	data []byte // nil for phantom buffers
}

// NewReal wraps data in a real buffer.
func NewReal(data []byte) *Buffer {
	return &Buffer{id: nextID.Add(1), size: int64(len(data)), data: data}
}

// NewPhantom creates a size-only buffer.
// Like Slice, NewPhantom must stay within the compiler's inlining budget
// (80): only an inlined NewPhantom — and coll.Like around it — lets escape
// analysis keep per-segment phantom scratch on the caller's stack. Hence the
// panic value is the size itself as a negativeSize, formatted only when
// printed; a fmt.Sprintf message costs 88, over budget even when moved into
// a helper.
func NewPhantom(size int64) *Buffer {
	if size < 0 {
		panic(negativeSize(size))
	}
	return &Buffer{id: nextID.Add(1), size: size}
}

// negativeSize is NewPhantom's panic value: the offending size, which
// prints as "buffer: negative size N".
type negativeSize int64

func (n negativeSize) Error() string { return fmt.Sprintf("buffer: negative size %d", int64(n)) }

// ID identifies the allocation; slices of one buffer share it.
func (b *Buffer) ID() uint64 { return b.id }

// Len returns the buffer length in bytes.
func (b *Buffer) Len() int64 { return b.size }

// Phantom reports whether the buffer carries no real bytes.
func (b *Buffer) Phantom() bool { return b.data == nil }

// Data returns the live byte window, or nil for phantom buffers.
func (b *Buffer) Data() []byte {
	if b.data == nil {
		return nil
	}
	return b.data[b.off : b.off+b.size]
}

// Slice returns a view of n bytes starting at off, sharing identity and
// backing storage with b.
// Slice must stay within the compiler's inlining budget: collectives carve a
// segment header on every hop, and only an inlined Slice lets escape
// analysis keep those headers on the caller's stack. Hence the unsigned
// bounds check (off < 0, n < 0 and off+n > size in two compares) and the
// constant panic string — a formatted message would cost a call and push the
// function past the budget.
func (b *Buffer) Slice(off, n int64) *Buffer {
	if uint64(off) > uint64(b.size) || uint64(n) > uint64(b.size-off) {
		panic("buffer: slice bounds out of range")
	}
	return &Buffer{id: b.id, off: b.off + off, size: n, data: b.data}
}

// CopyFrom copies src's bytes into b when both are real; phantom endpoints
// make it a size-checked no-op. Sizes must match.
func (b *Buffer) CopyFrom(src *Buffer) {
	if b.size != src.size {
		panic(fmt.Sprintf("buffer: copy size mismatch %d != %d", b.size, src.size))
	}
	if b.data == nil || src.data == nil {
		return
	}
	copy(b.Data(), src.Data())
}

// Datatype describes the element type of a buffer for reductions.
type Datatype int

const (
	Byte Datatype = iota
	Int32
	Int64
	Float32
	Float64
)

// Size returns the element size in bytes.
func (d Datatype) Size() int64 {
	switch d {
	case Byte:
		return 1
	case Int32, Float32:
		return 4
	case Int64, Float64:
		return 8
	default:
		panic(fmt.Sprintf("buffer: unknown datatype %d", d))
	}
}

func (d Datatype) String() string {
	switch d {
	case Byte:
		return "byte"
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	default:
		return fmt.Sprintf("datatype(%d)", int(d))
	}
}

// Op is a reduction operator.
type Op int

const (
	OpSum Op = iota
	OpProd
	OpMax
	OpMin
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpProd:
		return "prod"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Reduce applies dst = op(dst, src) elementwise. Phantom operands make it a
// size-checked no-op (the simulator still charges compute time for it).
func Reduce(op Op, dtype Datatype, dst, src *Buffer) {
	if dst.size != src.size {
		panic(fmt.Sprintf("buffer: reduce size mismatch %d != %d", dst.size, src.size))
	}
	if dst.size%dtype.Size() != 0 {
		panic(fmt.Sprintf("buffer: %d bytes not a multiple of %s", dst.size, dtype))
	}
	if dst.data == nil || src.data == nil {
		return
	}
	d, s := dst.Data(), src.Data()
	es := int(dtype.Size())
	for i := 0; i+es <= len(d); i += es {
		reduceElem(op, dtype, d[i:i+es], s[i:i+es])
	}
}

func reduceElem(op Op, dtype Datatype, d, s []byte) {
	switch dtype {
	case Byte:
		d[0] = byte(applyI(op, int64(d[0]), int64(s[0])))
	case Int32:
		v := applyI(op, int64(int32(binary.LittleEndian.Uint32(d))), int64(int32(binary.LittleEndian.Uint32(s))))
		binary.LittleEndian.PutUint32(d, uint32(int32(v)))
	case Int64:
		v := applyI(op, int64(binary.LittleEndian.Uint64(d)), int64(binary.LittleEndian.Uint64(s)))
		binary.LittleEndian.PutUint64(d, uint64(v))
	case Float32:
		v := applyF(op, float64(math.Float32frombits(binary.LittleEndian.Uint32(d))),
			float64(math.Float32frombits(binary.LittleEndian.Uint32(s))))
		binary.LittleEndian.PutUint32(d, math.Float32bits(float32(v)))
	case Float64:
		v := applyF(op, math.Float64frombits(binary.LittleEndian.Uint64(d)),
			math.Float64frombits(binary.LittleEndian.Uint64(s)))
		binary.LittleEndian.PutUint64(d, math.Float64bits(v))
	}
}

func applyI(op Op, a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	panic("buffer: unknown op")
}

func applyF(op Op, a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	}
	panic("buffer: unknown op")
}

// Float64s wraps a []float64 as a real buffer (little-endian layout).
func Float64s(v []float64) *Buffer {
	data := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(x))
	}
	return NewReal(data)
}

// AsFloat64s decodes a real buffer as []float64.
func AsFloat64s(b *Buffer) []float64 {
	data := b.Data()
	if data == nil {
		return nil
	}
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out
}

// Int64s wraps a []int64 as a real buffer.
func Int64s(v []int64) *Buffer {
	data := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(data[8*i:], uint64(x))
	}
	return NewReal(data)
}

// AsInt64s decodes a real buffer as []int64.
func AsInt64s(b *Buffer) []int64 {
	data := b.Data()
	if data == nil {
		return nil
	}
	out := make([]int64, len(data)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out
}
