package tensor

import (
	"fmt"
	"testing"

	"adafl/internal/stats"
)

// The benchmark shapes are the GEMMs the paper CNN actually runs per
// sample (see internal/nn/zoo.go): conv1 lowers to (20×25)@(25×576),
// conv2 to (50×500)@(500×64), the dense head to (N×800)@(800×500); the
// 32-row variant models a batched im2col GEMM.
var gemmShapes = []struct{ m, k, n int }{
	{20, 25, 576},  // conv1: OutC × CKK × OH·OW
	{50, 500, 64},  // conv2
	{32, 500, 576}, // batched conv-shape GEMM
	{8, 800, 500},  // dense head, batch 8
}

func randMat(m, n int, seed uint64) *Tensor {
	t := New(m, n)
	t.RandNorm(stats.NewRNG(seed), 1)
	return t
}

// BenchmarkMatMul measures the production MatMulInto kernel at the
// paper-CNN shapes (single-threaded; the parallel path is gated off by
// the worker budget during benchmarks).
func BenchmarkMatMul(b *testing.B) {
	for _, s := range gemmShapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			old := MatMulWorkers()
			SetMatMulWorkers(1)
			defer SetMatMulWorkers(old)
			a := randMat(s.m, s.k, 1)
			bb := randMat(s.k, s.n, 2)
			c := New(s.m, s.n)
			b.SetBytes(int64(8 * s.m * s.k * s.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(c, a, bb)
			}
		})
	}
}

// BenchmarkMatMulNaive measures the retained seed kernel (the naive
// i-p-j loop) at the same shapes, so every PR can verify the blocked
// kernel's speedup without checking out the seed.
func BenchmarkMatMulNaive(b *testing.B) {
	for _, s := range gemmShapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			a := randMat(s.m, s.k, 1)
			bb := randMat(s.k, s.n, 2)
			c := New(s.m, s.n)
			b.SetBytes(int64(8 * s.m * s.k * s.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				naiveMatMulInto(c, a, bb)
			}
		})
	}
}

// BenchmarkMatMulParallel measures the row-parallel path with a forced
// worker budget of 4, at the largest bench shape.
func BenchmarkMatMulParallel(b *testing.B) {
	old := MatMulWorkers()
	SetMatMulWorkers(4)
	defer SetMatMulWorkers(old)
	s := gemmShapes[2]
	a := randMat(s.m, s.k, 1)
	bb := randMat(s.k, s.n, 2)
	c := New(s.m, s.n)
	b.SetBytes(int64(8 * s.m * s.k * s.n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(c, a, bb)
	}
}

// BenchmarkMatMulTransposeA/B cover the backward-pass kernels at the
// conv2 weight-gradient and dense input-gradient shapes.
func BenchmarkMatMulTransposeA(b *testing.B) {
	// dcols = Wᵀ @ g: a (50×500), b (50×64) -> c (500×64)
	a := randMat(50, 500, 1)
	g := randMat(50, 64, 2)
	c := New(500, 64)
	b.SetBytes(int64(8 * 50 * 500 * 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Zero()
		MatMulTransposeA(c, a, g)
	}
}

func BenchmarkMatMulTransposeB(b *testing.B) {
	// dx = gradOut @ Wᵀ: a (8×500), b (800×500) -> c (8×800)
	a := randMat(8, 500, 1)
	w := randMat(800, 500, 2)
	c := New(8, 800)
	b.SetBytes(int64(8 * 8 * 500 * 800))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransposeB(c, a, w)
	}
}

// ledgerShapes are the products one training step runs, each in the form
// its layer calls: the paper CNN at batch 16 (perfbench's sim-cnn) and the
// wire MLP 784→512→10 (wire-sync). m×k×n is c's rows × the reduction ×
// c's columns.
var ledgerShapes = []struct {
	name    string
	form    string // "ab": c = a@b, "atb": c += aᵀ@b, "abt": c = a@bᵀ, "abt+": c += a@bᵀ
	m, k, n int
}{
	{"conv1-fwd", "ab", 20, 25, 576},
	{"conv2-fwd", "ab", 50, 500, 64},
	{"conv2-dcols", "atb", 500, 50, 64},
	{"conv2-dW", "abt+", 50, 64, 500},
	{"dense-fwd", "ab", 16, 800, 500},
	{"dense-dW", "atb", 800, 16, 500},
	{"dense-dx", "abt", 16, 500, 800},
	{"mlp-fwd", "ab", 16, 784, 512},
	{"mlp-dW", "atb", 784, 16, 512},
	{"mlp-head", "ab", 16, 512, 10},
}

// BenchmarkGEMMShapes is the GEMM ledger: every ledger shape through the
// public entry points at one and two workers, in multiply-adds per
// nanosecond. At two workers a product large enough to fan out must still
// report 0 allocs/op.
func BenchmarkGEMMShapes(b *testing.B) {
	for _, s := range ledgerShapes {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s-%dx%dx%d/w%d", s.name, s.m, s.k, s.n, workers)
			b.Run(name, func(b *testing.B) {
				old := MatMulWorkers()
				SetMatMulWorkers(workers)
				defer SetMatMulWorkers(old)
				c := New(s.m, s.n)
				var product func()
				switch s.form {
				case "ab":
					a, bb := randMat(s.m, s.k, 1), randMat(s.k, s.n, 2)
					product = func() { MatMulInto(c, a, bb) }
				case "atb":
					a, bb := randMat(s.k, s.m, 1), randMat(s.k, s.n, 2)
					product = func() { MatMulTransposeA(c, a, bb) }
				case "abt":
					a, bb := randMat(s.m, s.k, 1), randMat(s.n, s.k, 2)
					product = func() { MatMulTransposeB(c, a, bb) }
				case "abt+":
					a, bb := randMat(s.m, s.k, 1), randMat(s.n, s.k, 2)
					product = func() { MatMulTransposeBAdd(c, a, bb) }
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					product()
				}
				b.ReportMetric(float64(s.m*s.k*s.n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "madd/ns")
			})
		}
	}
}
