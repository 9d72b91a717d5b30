//go:build !amd64

package tensor

// Non-amd64 builds always use the pure-Go blocked kernels.

func detectSIMD() bool { return false }

func fmaAxpy4(c0, c1, c2, c3, b *float64, n int, a0, a1, a2, a3 float64) {
	panic("tensor: fmaAxpy4 called without SIMD support")
}

func fmaDot4(a, b0, b1, b2, b3 *float64, n int) (s0, s1, s2, s3 float64) {
	panic("tensor: fmaDot4 called without SIMD support")
}

func fmaTile4x8(c *float64, ldc int, a *float64, rsa, psa int, b *float64, ldb, k, tiles int) {
	panic("tensor: fmaTile4x8 called without SIMD support")
}

func fmaDot2x4(a, b *float64, k int) (s00, s01, s02, s03, s10, s11, s12, s13 float64) {
	panic("tensor: fmaDot2x4 called without SIMD support")
}
