package tensor

import "math"

// Naive reference kernels: the seed implementations of the four matmul
// variants, retained verbatim so the blocked kernels in gemm.go can be
// checked for numerical equivalence (gemm_test.go) and benchmarked for
// speedup (gemm_bench_test.go) without checking out an old revision. They
// must not be called from production code paths.

// naiveMatMulInto computes c = a @ b with the seed's i-p-j loop.
func naiveMatMulInto(c, a, b *Tensor) {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	if c.Dim(0) != m || c.Dim(1) != n {
		panic("tensor: naiveMatMulInto output shape mismatch")
	}
	c.Zero()
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// naiveMatMulTransposeB computes c = a @ bᵀ with the seed's dot loop.
func naiveMatMulTransposeB(c, a, b *Tensor) {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	if b.Dim(1) != k || c.Dim(0) != m || c.Dim(1) != n {
		panic("tensor: naiveMatMulTransposeB shape mismatch")
	}
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			sum := 0.0
			for p, av := range arow {
				sum += av * brow[p]
			}
			crow[j] = sum
		}
	}
}

// naiveMatMulTransposeBAdd computes c += a @ bᵀ.
func naiveMatMulTransposeBAdd(c, a, b *Tensor) {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	if b.Dim(1) != k || c.Dim(0) != m || c.Dim(1) != n {
		panic("tensor: naiveMatMulTransposeBAdd shape mismatch")
	}
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			sum := 0.0
			for p, av := range arow {
				sum += av * brow[p]
			}
			crow[j] += sum
		}
	}
}

// naiveMatMulTransposeA computes c += aᵀ @ b with the seed's p-i-j loop.
func naiveMatMulTransposeA(c, a, b *Tensor) {
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	if b.Dim(0) != k || c.Dim(0) != m || c.Dim(1) != n {
		panic("tensor: naiveMatMulTransposeA shape mismatch")
	}
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := c.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// FMA-order references: the exact arithmetic of the AVX2+FMA kernels,
// element by element, written with math.FMA so a test can demand bitwise
// equality. They pin the rounding a reordered or re-fused kernel would
// change; the naive kernels above only bound the error.
//
// The axpy forms (c = a@b, c += aᵀ@b) give each element of the first m&^3
// rows one fused multiply-add per reduction index, in ascending p,
// starting from the element's value on entry; the m%4 remainder rows keep
// the scalar kernels' unfused sums. The dot form gives each of the first
// n&^3 columns a 4-lane fused accumulator over p < k&^3, reduced as
// (l0+l2) + (l1+l3), then a fused scalar tail, added to c; the n%4
// remainder columns keep an unfused sum.

// fmaRefMatMulInto computes c = a @ b the way the SIMD MatMulInto does.
func fmaRefMatMulInto(c, a, b *Tensor) {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				if i < m&^3 {
					s = math.FMA(a.Data[i*k+p], b.Data[p*n+j], s)
				} else {
					s += a.Data[i*k+p] * b.Data[p*n+j]
				}
			}
			c.Data[i*n+j] = 0
			c.Data[i*n+j] += s
		}
	}
}

// fmaRefMatMulTransposeA computes c += aᵀ @ b the way the SIMD
// MatMulTransposeA does.
func fmaRefMatMulTransposeA(c, a, b *Tensor) {
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c.Data[i*n+j]
			for p := 0; p < k; p++ {
				av := a.Data[p*m+i]
				if i < m&^3 {
					s = math.FMA(av, b.Data[p*n+j], s)
				} else if av != 0 {
					s += av * b.Data[p*n+j]
				}
			}
			c.Data[i*n+j] = s
		}
	}
}

// fmaRefMatMulTransposeB computes c = a @ bᵀ (or c += a @ bᵀ when add) the
// way the SIMD MatMulTransposeB and MatMulTransposeBAdd do.
func fmaRefMatMulTransposeB(c, a, b *Tensor, add bool) {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	for i := 0; i < m; i++ {
		ar := a.Data[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			br := b.Data[j*k : (j+1)*k]
			s := 0.0
			if j < n&^3 {
				var lane [4]float64
				p := 0
				for ; p < k&^3; p++ {
					lane[p%4] = math.FMA(ar[p], br[p], lane[p%4])
				}
				s = (lane[0] + lane[2]) + (lane[1] + lane[3])
				for ; p < k; p++ {
					s = math.FMA(ar[p], br[p], s)
				}
			} else {
				for p := range ar {
					s += ar[p] * br[p]
				}
			}
			if !add {
				c.Data[i*n+j] = 0
			}
			c.Data[i*n+j] += s
		}
	}
}
