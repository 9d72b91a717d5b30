package tensor

// Assembly bindings for the AVX2+FMA micro-kernels in gemm_amd64.s.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func fmaAxpy4(c0, c1, c2, c3, b *float64, n int, a0, a1, a2, a3 float64)

//go:noescape
func fmaDot4(a, b0, b1, b2, b3 *float64, n int) (s0, s1, s2, s3 float64)

//go:noescape
func fmaTile4x8(c *float64, ldc int, a *float64, rsa, psa int, b *float64, ldb, k, tiles int)

//go:noescape
func fmaDot2x4(a, b *float64, k int) (s00, s01, s02, s03, s10, s11, s12, s13 float64)

// detectSIMD reports whether the CPU and OS support the AVX2+FMA kernels:
// CPUID must advertise FMA, AVX and AVX2, the OS must have enabled XSAVE
// (OSXSAVE) and be preserving XMM+YMM state across context switches.
func detectSIMD() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}
