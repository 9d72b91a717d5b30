package tensor

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"adafl/internal/stats"
)

// relClose reports whether x and y agree within tol relative tolerance.
func relClose(x, y, tol float64) bool {
	d := math.Abs(x - y)
	scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	return d <= tol*scale
}

func assertTensorsClose(t *testing.T, got, want *Tensor, tol float64, label string) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: size %d vs %d", label, len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if !relClose(got.Data[i], want.Data[i], tol) {
			t.Fatalf("%s: element %d: got %v want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// equivalenceShapes deliberately includes shapes that are not multiples of
// the 4×4 micro-kernel or the KC/NC cache blocks, plus degenerate 1-sized
// dimensions and the paper-CNN GEMM shapes.
var equivalenceShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{3, 5, 2},
	{4, 4, 4},
	{5, 9, 6},
	{7, 13, 11},
	{8, 300, 5}, // crosses a KC block boundary mid-reduction
	{16, 16, 16},
	{23, 31, 17},
	{20, 25, 576}, // conv1
	{50, 500, 64}, // conv2
	{33, 257, 65}, // every dimension one past a block/kernel multiple
}

// TestBlockedMatMulMatchesNaive checks all four blocked kernels against the
// retained seed kernels within 1e-9 relative tolerance, serial and with a
// forced worker budget.
func TestBlockedMatMulMatchesNaive(t *testing.T) {
	simdModes := []bool{false}
	if detectSIMD() {
		simdModes = append(simdModes, true)
	}
	oldSIMD := simdEnabled
	defer func() { simdEnabled = oldSIMD }()
	for _, simd := range simdModes {
		simdEnabled = simd
		testBlockedMatMulMatchesNaive(t, simd)
	}
}

func testBlockedMatMulMatchesNaive(t *testing.T, simd bool) {
	for _, workers := range []int{1, 4} {
		old := MatMulWorkers()
		SetMatMulWorkers(workers)
		for _, s := range equivalenceShapes {
			label := fmt.Sprintf("simd%v-w%d-%dx%dx%d", simd, workers, s.m, s.k, s.n)
			r := stats.NewRNG(uint64(s.m*1000000 + s.k*1000 + s.n))

			// c = a @ b
			a := New(s.m, s.k)
			a.RandNorm(r, 1)
			b := New(s.k, s.n)
			b.RandNorm(r, 1)
			got, want := New(s.m, s.n), New(s.m, s.n)
			MatMulInto(got, a, b)
			naiveMatMulInto(want, a, b)
			assertTensorsClose(t, got, want, 1e-9, label+"-MatMulInto")

			// c = a @ btᵀ with bt (n×k)
			bt := New(s.n, s.k)
			bt.RandNorm(r, 1)
			got.Zero()
			want.Zero()
			MatMulTransposeB(got, a, bt)
			naiveMatMulTransposeB(want, a, bt)
			assertTensorsClose(t, got, want, 1e-9, label+"-MatMulTransposeB")

			// c += a @ btᵀ on a shared non-zero starting point
			base := New(s.m, s.n)
			base.RandNorm(r, 1)
			got = base.Clone()
			want = base.Clone()
			MatMulTransposeBAdd(got, a, bt)
			naiveMatMulTransposeBAdd(want, a, bt)
			assertTensorsClose(t, got, want, 1e-9, label+"-MatMulTransposeBAdd")

			// c += atᵀ @ b with at (k×m)
			at := New(s.k, s.m)
			at.RandNorm(r, 1)
			got = base.Clone()
			want = base.Clone()
			MatMulTransposeA(got, at, b)
			naiveMatMulTransposeA(want, at, b)
			assertTensorsClose(t, got, want, 1e-9, label+"-MatMulTransposeA")
		}
		SetMatMulWorkers(old)
	}
}

// TestParallelMatMulBitIdentical verifies the row-parallel path produces
// bit-identical output to the serial path: each row's accumulation order is
// independent of the worker partition, so determinism must be exact.
func TestParallelMatMulBitIdentical(t *testing.T) {
	r := stats.NewRNG(42)
	a := New(64, 300)
	a.RandNorm(r, 1)
	b := New(300, 96)
	b.RandNorm(r, 1)

	old := MatMulWorkers()
	defer SetMatMulWorkers(old)

	SetMatMulWorkers(1)
	serial := New(64, 96)
	MatMulInto(serial, a, b)

	for _, w := range []int{2, 3, 8} {
		SetMatMulWorkers(w)
		par := New(64, 96)
		MatMulInto(par, a, b)
		for i := range par.Data {
			if par.Data[i] != serial.Data[i] {
				t.Fatalf("workers=%d: element %d differs: %v vs %v", w, i, par.Data[i], serial.Data[i])
			}
		}
	}
}

// TestWorkerBudgetRestored checks tokens drain back after parallel calls.
func TestWorkerBudgetRestored(t *testing.T) {
	old := MatMulWorkers()
	defer SetMatMulWorkers(old)
	SetMatMulWorkers(4)
	r := stats.NewRNG(7)
	a := New(64, 300)
	a.RandNorm(r, 1)
	b := New(300, 96)
	b.RandNorm(r, 1)
	c := New(64, 96)
	for i := 0; i < 10; i++ {
		MatMulInto(c, a, b)
	}
	if free := helperTokens.Load(); free != 3 {
		t.Fatalf("helper tokens leaked: have %d free of 3", free)
	}
}

// TestSIMDKernelsMatchFMAReference requires the AVX2+FMA kernels to equal
// the FMA-order references bit for bit — the same fused multiply-adds in
// the same order — at every worker count. A kernel that reorders or
// re-fuses an accumulation passes TestBlockedMatMulMatchesNaive's 1e-9
// tolerance but fails here.
func TestSIMDKernelsMatchFMAReference(t *testing.T) {
	if !detectSIMD() {
		t.Skip("no AVX2+FMA on this CPU")
	}
	oldSIMD := simdEnabled
	defer func() { simdEnabled = oldSIMD }()
	simdEnabled = true
	old := MatMulWorkers()
	defer SetMatMulWorkers(old)

	shapes := append([]struct{ m, k, n int }{
		{16, 784, 512}, // wire MLP forward
		{784, 16, 512}, // wire MLP weight gradient
		{16, 512, 10},  // wire MLP head
		{8, 4099, 9},   // reduction split into chunks at n = 9
	}, equivalenceShapes...)
	// Every column remainder past the 8-wide tile at short and long
	// reductions, with row remainders alongside.
	for _, k := range []int{1, 2, 257} {
		for r := 1; r <= 7; r++ {
			shapes = append(shapes, struct{ m, k, n int }{4 + r, k, 8 + r})
		}
	}
	bitsEqual := func(got, want *Tensor, label string) {
		t.Helper()
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: element %d: got %v want %v", label, i, got.Data[i], want.Data[i])
			}
		}
	}
	for _, workers := range []int{1, 2, 4} {
		SetMatMulWorkers(workers)
		for _, s := range shapes {
			label := fmt.Sprintf("w%d-%dx%dx%d", workers, s.m, s.k, s.n)
			r := stats.NewRNG(uint64(s.m*1000003 + s.k*1009 + s.n))
			a := New(s.m, s.k)
			a.RandNorm(r, 1)
			b := New(s.k, s.n)
			b.RandNorm(r, 1)
			bt := New(s.n, s.k)
			bt.RandNorm(r, 1)
			at := New(s.k, s.m)
			at.RandNorm(r, 1)
			for i := 0; i < len(at.Data); i += 5 {
				at.Data[i] = 0 // the scalar transpose-A rows skip zeros
			}
			base := New(s.m, s.n)
			base.RandNorm(r, 1)

			got, want := base.Clone(), base.Clone()
			MatMulInto(got, a, b)
			fmaRefMatMulInto(want, a, b)
			bitsEqual(got, want, label+"-MatMulInto")

			got, want = base.Clone(), base.Clone()
			MatMulTransposeA(got, at, b)
			fmaRefMatMulTransposeA(want, at, b)
			bitsEqual(got, want, label+"-MatMulTransposeA")

			got, want = base.Clone(), base.Clone()
			MatMulTransposeB(got, a, bt)
			fmaRefMatMulTransposeB(want, a, bt, false)
			bitsEqual(got, want, label+"-MatMulTransposeB")

			got, want = base.Clone(), base.Clone()
			MatMulTransposeBAdd(got, a, bt)
			fmaRefMatMulTransposeB(want, a, bt, true)
			bitsEqual(got, want, label+"-MatMulTransposeBAdd")
		}
	}
}

// TestParallelMatMulAllocationFree pins the fan-out to helper goroutines
// as allocation-free once its helpers exist: tasks travel by value to
// parked helpers, with no goroutine, closure or WaitGroup per product.
func TestParallelMatMulAllocationFree(t *testing.T) {
	old := MatMulWorkers()
	defer SetMatMulWorkers(old)
	SetMatMulWorkers(2)
	const m, k, n = 50, 500, 64 // conv2
	a, b := randMat(m, k, 1), randMat(k, n, 2)
	at, bt := randMat(k, m, 3), randMat(n, k, 4)
	c := New(m, n)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"MatMulInto", func() { MatMulInto(c, a, b) }},
		{"MatMulTransposeA", func() { MatMulTransposeA(c, at, b) }},
		{"MatMulTransposeB", func() { MatMulTransposeB(c, a, bt) }},
	} {
		if allocs := testing.AllocsPerRun(50, tc.fn); allocs != 0 {
			t.Errorf("%s with 2 workers: %v allocs per product, want 0", tc.name, allocs)
		}
	}
	helpers := planHelpers(m, m*k*n)
	releaseHelpers(helpers)
	if helpers != 1 {
		t.Fatalf("conv2 at 2 workers plans %d helpers, want 1: the products ran serially", helpers)
	}
	if free := helperTokens.Load(); free != 1 {
		t.Fatalf("helper tokens leaked: have %d free of 1", free)
	}
}

// TestConcurrentParallelMatMul runs fanned-out products from several
// goroutines at once, as concurrently training clients do, so they contend
// for the token budget and the helper pool: every result must equal the
// serial one bit for bit, and every token must come back.
func TestConcurrentParallelMatMul(t *testing.T) {
	old := MatMulWorkers()
	defer SetMatMulWorkers(old)
	SetMatMulWorkers(1)
	a, b := randMat(64, 300, 1), randMat(300, 96, 2)
	want := New(64, 96)
	MatMulInto(want, a, b)

	SetMatMulWorkers(4)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := New(64, 96)
			for i := 0; i < 20; i++ {
				MatMulInto(c, a, b)
				for j := range c.Data {
					if c.Data[j] != want.Data[j] {
						t.Errorf("element %d: got %v want %v", j, c.Data[j], want.Data[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if free := helperTokens.Load(); free != 3 {
		t.Fatalf("helper tokens leaked: have %d free of 3", free)
	}
}

func mustPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", label)
		}
	}()
	fn()
}

// TestMatMulShapePanics covers the shape guards of all matmul variants:
// mismatched inner dimensions, wrong output shapes and non-2D operands.
func TestMatMulShapePanics(t *testing.T) {
	a := New(3, 4)  // m×k
	b := New(4, 5)  // k×n
	bt := New(5, 4) // n×k
	at := New(4, 3) // k×m
	c := New(3, 5)  // m×n
	bad := New(2, 2)
	vec := New(4)

	mustPanic(t, "MatMul inner", func() { MatMul(a, bad) })
	mustPanic(t, "MatMul rank", func() { MatMul(a, vec) })

	mustPanic(t, "MatMulInto inner", func() { MatMulInto(c, a, bad) })
	mustPanic(t, "MatMulInto out", func() { MatMulInto(bad, a, b) })
	mustPanic(t, "MatMulInto rank", func() { MatMulInto(c, vec, b) })

	mustPanic(t, "MatMulTransposeB inner", func() { MatMulTransposeB(c, a, New(5, 3)) })
	mustPanic(t, "MatMulTransposeB out", func() { MatMulTransposeB(bad, a, bt) })
	mustPanic(t, "MatMulTransposeB rank", func() { MatMulTransposeB(c, a, vec) })

	mustPanic(t, "MatMulTransposeBAdd inner", func() { MatMulTransposeBAdd(c, a, New(5, 3)) })
	mustPanic(t, "MatMulTransposeBAdd out", func() { MatMulTransposeBAdd(bad, a, bt) })

	mustPanic(t, "MatMulTransposeA inner", func() { MatMulTransposeA(c, at, New(3, 5)) })
	mustPanic(t, "MatMulTransposeA out", func() { MatMulTransposeA(bad, at, b) })
	mustPanic(t, "MatMulTransposeA rank", func() { MatMulTransposeA(c, vec, b) })

	// Valid calls must not panic after all that.
	MatMulInto(c, a, b)
	MatMulTransposeB(c, a, bt)
	MatMulTransposeBAdd(c, a, bt)
	MatMulTransposeA(c, at, b)

	// FromSlice admits empty dimensions; an empty reduction or output is
	// a valid product that must neither panic nor leave garbage.
	for _, s := range []struct{ m, k, n int }{{8, 0, 8}, {8, 4, 0}, {0, 4, 8}} {
		e := func(r, c int) *Tensor { return FromSlice(make([]float64, r*c), r, c) }
		out := e(s.m, s.n)
		for i := range out.Data {
			out.Data[i] = 1
		}
		MatMulInto(out, e(s.m, s.k), e(s.k, s.n))
		for i, v := range out.Data {
			if v != 0 {
				t.Fatalf("MatMulInto %v: element %d = %v, want 0", s, i, v)
			}
		}
		MatMulTransposeA(out, e(s.k, s.m), e(s.k, s.n))
		MatMulTransposeB(out, e(s.m, s.k), e(s.n, s.k))
		MatMulTransposeBAdd(out, e(s.m, s.k), e(s.n, s.k))
	}
}

// TestScratchPoolRoundTrip checks GetScratch length semantics and reuse.
func TestScratchPoolRoundTrip(t *testing.T) {
	s := GetScratch(100)
	if len(s) != 100 {
		t.Fatalf("GetScratch(100) returned len %d", len(s))
	}
	for i := range s {
		s[i] = float64(i)
	}
	PutScratch(s)
	s2 := GetScratch(50)
	if len(s2) != 50 {
		t.Fatalf("GetScratch(50) returned len %d", len(s2))
	}
	PutScratch(s2)
}
