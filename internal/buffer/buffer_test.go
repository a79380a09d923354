package buffer

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRealBufferRoundTrip(t *testing.T) {
	b := NewReal([]byte{1, 2, 3, 4})
	if b.Phantom() {
		t.Fatal("real buffer reported phantom")
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	if !bytes.Equal(b.Data(), []byte{1, 2, 3, 4}) {
		t.Fatalf("Data = %v", b.Data())
	}
}

func TestPhantomBuffer(t *testing.T) {
	b := NewPhantom(1 << 30) // no allocation
	if !b.Phantom() || b.Len() != 1<<30 || b.Data() != nil {
		t.Fatal("phantom buffer misbehaves")
	}
}

// The panic value names the offending size, though NewPhantom must not
// format it itself (see its comment).
func TestNewPhantomNegativeSizePanic(t *testing.T) {
	defer func() {
		err, ok := recover().(error)
		if !ok || err.Error() != "buffer: negative size -3" {
			t.Fatalf("NewPhantom(-3) panicked with %v, want buffer: negative size -3", err)
		}
	}()
	NewPhantom(-3)
}

func TestSliceSharesIdentityAndStorage(t *testing.T) {
	b := NewReal(make([]byte, 10))
	s := b.Slice(2, 4)
	if s.ID() != b.ID() {
		t.Fatal("slice has different ID")
	}
	s.Data()[0] = 42
	if b.Data()[2] != 42 {
		t.Fatal("slice does not alias parent storage")
	}
	s2 := s.Slice(1, 2)
	s2.Data()[0] = 7
	if b.Data()[3] != 7 {
		t.Fatal("nested slice offset wrong")
	}
}

func TestSliceBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slice did not panic")
		}
	}()
	NewReal(make([]byte, 4)).Slice(2, 3)
}

func TestCopyFrom(t *testing.T) {
	src := NewReal([]byte{9, 8, 7})
	dst := NewReal(make([]byte, 3))
	dst.CopyFrom(src)
	if !bytes.Equal(dst.Data(), []byte{9, 8, 7}) {
		t.Fatalf("copy failed: %v", dst.Data())
	}
	// Phantom endpoints: size-checked no-op.
	NewPhantom(3).CopyFrom(src)
	dst.CopyFrom(NewPhantom(3))
}

func TestCopySizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	NewPhantom(2).CopyFrom(NewPhantom(3))
}

func TestDatatypeSizes(t *testing.T) {
	cases := map[Datatype]int64{Byte: 1, Int32: 4, Int64: 8, Float32: 4, Float64: 8}
	for d, want := range cases {
		if d.Size() != want {
			t.Errorf("%v.Size() = %d, want %d", d, d.Size(), want)
		}
	}
}

func TestReduceSumFloat64(t *testing.T) {
	dst := Float64s([]float64{1, 2, 3})
	src := Float64s([]float64{10, 20, 30})
	Reduce(OpSum, Float64, dst, src)
	got := AsFloat64s(dst)
	want := []float64{11, 22, 33}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sum = %v, want %v", got, want)
		}
	}
}

func TestReduceOpsInt64(t *testing.T) {
	cases := []struct {
		op   Op
		want []int64
	}{
		{OpSum, []int64{5, 5}},
		{OpProd, []int64{6, 4}},
		{OpMax, []int64{3, 4}},
		{OpMin, []int64{2, 1}},
	}
	for _, c := range cases {
		dst := Int64s([]int64{2, 4})
		src := Int64s([]int64{3, 1})
		Reduce(c.op, Int64, dst, src)
		got := AsInt64s(dst)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%v = %v, want %v", c.op, got, c.want)
			}
		}
	}
}

func TestReduceMinFloatAndByte(t *testing.T) {
	dst := Float64s([]float64{1.5, -2})
	src := Float64s([]float64{0.5, -1})
	Reduce(OpMin, Float64, dst, src)
	got := AsFloat64s(dst)
	if got[0] != 0.5 || got[1] != -2 {
		t.Fatalf("min = %v", got)
	}
	bd := NewReal([]byte{5, 200})
	bs := NewReal([]byte{7, 100})
	Reduce(OpMax, Byte, bd, bs)
	if bd.Data()[0] != 7 || bd.Data()[1] != 200 {
		t.Fatalf("byte max = %v", bd.Data())
	}
}

func TestReducePhantomNoop(t *testing.T) {
	dst := NewPhantom(16)
	src := NewPhantom(16)
	Reduce(OpSum, Float64, dst, src) // must not panic
}

func TestReduceAlignmentPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned reduce did not panic")
		}
	}()
	Reduce(OpSum, Float64, NewReal(make([]byte, 12)), NewReal(make([]byte, 12)))
}

func TestFloat64sRoundTrip(t *testing.T) {
	v := []float64{3.14, -2.71, 0, 1e300}
	got := AsFloat64s(Float64s(v))
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("roundtrip = %v, want %v", got, v)
		}
	}
}

func TestDistinctIDs(t *testing.T) {
	a, b := NewPhantom(1), NewPhantom(1)
	if a.ID() == b.ID() {
		t.Fatal("two buffers share an ID")
	}
}

// Property: sum-reduce over int64 equals elementwise Go addition.
func TestQuickReduceSumMatchesGo(t *testing.T) {
	f := func(a, b []int64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		dst := Int64s(a)
		Reduce(OpSum, Int64, dst, Int64s(b))
		got := AsInt64s(dst)
		for i := 0; i < n; i++ {
			if got[i] != a[i]+b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: slicing then copying reassembles the original (segmented
// pipeline transfers must be lossless).
func TestQuickSegmentedCopyLossless(t *testing.T) {
	f := func(data []byte, seg8 uint8) bool {
		if len(data) == 0 {
			return true
		}
		seg := int64(seg8)%int64(len(data)) + 1
		src := NewReal(data)
		dst := NewReal(make([]byte, len(data)))
		for off := int64(0); off < src.Len(); off += seg {
			n := seg
			if off+n > src.Len() {
				n = src.Len() - off
			}
			dst.Slice(off, n).CopyFrom(src.Slice(off, n))
		}
		return bytes.Equal(dst.Data(), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
