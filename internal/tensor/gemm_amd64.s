// AVX2+FMA micro-kernels for the blocked GEMM in gemm.go. Only reached
// when detectSIMD() confirms CPUID support (FMA+AVX2 with OS-saved YMM
// state); every kernel has a pure-Go fallback.

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fmaAxpy4(c0, c1, c2, c3, b *float64, n int, a0, a1, a2, a3 float64)
//
// The quad-axpy micro-kernel: for j in [0,n)
//	c0[j] += a0*b[j]; c1[j] += a1*b[j]; c2[j] += a2*b[j]; c3[j] += a3*b[j]
// Each loaded vector of b feeds four FMA lanes, so the kernel serves both
// c = a@b (four rows of A against one row of B) and c += aᵀ@b (four
// columns of A against one row of B).
TEXT ·fmaAxpy4(SB), NOSPLIT, $0-80
	MOVQ c0+0(FP), R8
	MOVQ c1+8(FP), R9
	MOVQ c2+16(FP), R10
	MOVQ c3+24(FP), R11
	MOVQ b+32(FP), SI
	MOVQ n+40(FP), CX
	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3

loop4:
	CMPQ CX, $4
	JLT  tail
	VMOVUPD (SI), Y4
	VMOVUPD (R8), Y5
	VFMADD231PD Y4, Y0, Y5
	VMOVUPD Y5, (R8)
	VMOVUPD (R9), Y6
	VFMADD231PD Y4, Y1, Y6
	VMOVUPD Y6, (R9)
	VMOVUPD (R10), Y7
	VFMADD231PD Y4, Y2, Y7
	VMOVUPD Y7, (R10)
	VMOVUPD (R11), Y8
	VFMADD231PD Y4, Y3, Y8
	VMOVUPD Y8, (R11)
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $4, CX
	JMP  loop4

tail:
	TESTQ CX, CX
	JE   done
tailloop:
	VMOVSD (SI), X4
	VMOVSD (R8), X5
	VFMADD231SD X4, X0, X5
	VMOVSD X5, (R8)
	VMOVSD (R9), X6
	VFMADD231SD X4, X1, X6
	VMOVSD X6, (R9)
	VMOVSD (R10), X7
	VFMADD231SD X4, X2, X7
	VMOVSD X7, (R10)
	VMOVSD (R11), X8
	VFMADD231SD X4, X3, X8
	VMOVSD X8, (R11)
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ CX
	JNE  tailloop

done:
	VZEROUPPER
	RET

// func fmaDot4(a, b0, b1, b2, b3 *float64, n int) (s0, s1, s2, s3 float64)
//
// Four simultaneous dot products of one row of A against four rows of B
// (all contiguous), the inner kernel of c = a@bᵀ. Four independent vector
// accumulators keep the FMA pipeline full; lanes are reduced at the end,
// then a scalar tail handles n%4.
TEXT ·fmaDot4(SB), NOSPLIT, $0-80
	MOVQ a+0(FP), SI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ n+40(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

loop4:
	CMPQ CX, $4
	JLT  reduce
	VMOVUPD (SI), Y4
	VMOVUPD (R8), Y5
	VFMADD231PD Y4, Y5, Y0
	VMOVUPD (R9), Y6
	VFMADD231PD Y4, Y6, Y1
	VMOVUPD (R10), Y7
	VFMADD231PD Y4, Y7, Y2
	VMOVUPD (R11), Y8
	VFMADD231PD Y4, Y8, Y3
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $4, CX
	JMP  loop4

reduce:
	// Fold each 4-lane accumulator to a scalar in its low lane.
	VEXTRACTF128 $1, Y0, X4
	VADDPD X4, X0, X0
	VUNPCKHPD X0, X0, X4
	VADDSD X4, X0, X0
	VEXTRACTF128 $1, Y1, X5
	VADDPD X5, X1, X1
	VUNPCKHPD X1, X1, X5
	VADDSD X5, X1, X1
	VEXTRACTF128 $1, Y2, X6
	VADDPD X6, X2, X2
	VUNPCKHPD X2, X2, X6
	VADDSD X6, X2, X2
	VEXTRACTF128 $1, Y3, X7
	VADDPD X7, X3, X3
	VUNPCKHPD X3, X3, X7
	VADDSD X7, X3, X3

	TESTQ CX, CX
	JE   store
tailloop:
	VMOVSD (SI), X4
	VMOVSD (R8), X5
	VFMADD231SD X4, X5, X0
	VMOVSD (R9), X5
	VFMADD231SD X4, X5, X1
	VMOVSD (R10), X5
	VFMADD231SD X4, X5, X2
	VMOVSD (R11), X5
	VFMADD231SD X4, X5, X3
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ CX
	JNE  tailloop

store:
	VMOVSD X0, s0+48(FP)
	VMOVSD X1, s1+56(FP)
	VMOVSD X2, s2+64(FP)
	VMOVSD X3, s3+72(FP)
	VZEROUPPER
	RET

// func fmaTile4x8(c *float64, ldc int, a *float64, rsa, psa int, b *float64, ldb, k, tiles int)
//
// The register-tiled axpy kernel: a 4×8 block of C (eight YMM
// accumulators, two per row) stays in registers for the whole reduction.
// For p in [0,k), with A(r,p) = a[r*rsa + p*psa] and B row p at b + p*ldb:
//	C[r][j] = fma(A(r,p), B[p][j], C[r][j])	for r in 0..3, j in 0..7
// so every element sees the fused chain in ascending p that fmaAxpy4
// gives it, starting from the value C holds on entry. rsa=k, psa=1 is
// c += a@b; rsa=1, psa=m is c += aᵀ@b. The kernel walks `tiles`
// consecutive 8-column tiles, reusing the same four A rows. Strides are
// in elements.
TEXT ·fmaTile4x8(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R13     // 3*ldc bytes
	MOVQ rsa+24(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R14     // 3*rsa bytes
	MOVQ psa+32(FP), R10
	SHLQ $3, R10
	MOVQ b+40(FP), SI        // B at the current tile, row 0
	MOVQ ldb+48(FP), R11
	SHLQ $3, R11
	MOVQ k+56(FP), DX
	MOVQ tiles+64(FP), BX
	TESTQ BX, BX
	JE   tdone

tile:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (DI)(R8*2), Y4
	VMOVUPD 32(DI)(R8*2), Y5
	VMOVUPD (DI)(R13*1), Y6
	VMOVUPD 32(DI)(R13*1), Y7
	MOVQ a+16(FP), AX
	MOVQ SI, R12
	MOVQ DX, CX
	TESTQ CX, CX
	JE   store

ploop:
	VMOVUPD (R12), Y8
	VMOVUPD 32(R12), Y9
	VBROADCASTSD (AX), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VBROADCASTSD (AX)(R9*1), Y11
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VBROADCASTSD (AX)(R9*2), Y12
	VFMADD231PD Y8, Y12, Y4
	VFMADD231PD Y9, Y12, Y5
	VBROADCASTSD (AX)(R14*1), Y13
	VFMADD231PD Y8, Y13, Y6
	VFMADD231PD Y9, Y13, Y7
	ADDQ R10, AX
	ADDQ R11, R12
	DECQ CX
	JNE  ploop

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y5, 32(DI)(R8*2)
	VMOVUPD Y6, (DI)(R13*1)
	VMOVUPD Y7, 32(DI)(R13*1)
	ADDQ $64, DI
	ADDQ $64, SI
	DECQ BX
	JNE  tile

tdone:
	VZEROUPPER
	RET

// REDUCE folds the 4-lane accumulator y (x is its low half) into its low
// lane as (l0+l2) + (l1+l3), the order fmaDot4 uses; t is scratch.
#define REDUCE(y, x, t) \
	VEXTRACTF128 $1, y, t; \
	VADDPD t, x, x; \
	VUNPCKHPD x, x, t; \
	VADDSD t, x, x

// func fmaDot2x4(a, b *float64, k int) (s00, s01, s02, s03, s10, s11, s12, s13 float64)
//
// Eight dot products of two rows of A (a, a+k) against four rows of B
// (b, b+k, b+2k, b+3k), all of length k: the 2×4 tile of c = a@bᵀ. Each
// output keeps fmaDot4's arithmetic exactly: a 4-lane fused accumulator
// over p < k&^3, the same lane reduction, then a fused scalar tail.
TEXT ·fmaDot2x4(SB), NOSPLIT, $0-88
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), R8
	MOVQ k+16(FP), CX
	MOVQ CX, DX
	SHLQ $3, DX              // row stride in bytes
	LEAQ (SI)(DX*1), DI      // A row 1
	LEAQ (R8)(DX*1), R9      // B row 1
	LEAQ (R8)(DX*2), R10     // B row 2
	LEAQ (R9)(DX*2), R11     // B row 3
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

dloop4:
	CMPQ CX, $4
	JLT  dreduce
	VMOVUPD (SI), Y8
	VMOVUPD (DI), Y9
	VMOVUPD (R8), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y4
	VMOVUPD (R9), Y11
	VFMADD231PD Y8, Y11, Y1
	VFMADD231PD Y9, Y11, Y5
	VMOVUPD (R10), Y12
	VFMADD231PD Y8, Y12, Y2
	VFMADD231PD Y9, Y12, Y6
	VMOVUPD (R11), Y13
	VFMADD231PD Y8, Y13, Y3
	VFMADD231PD Y9, Y13, Y7
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $4, CX
	JMP  dloop4

dreduce:
	REDUCE(Y0, X0, X8)
	REDUCE(Y1, X1, X9)
	REDUCE(Y2, X2, X10)
	REDUCE(Y3, X3, X11)
	REDUCE(Y4, X4, X12)
	REDUCE(Y5, X5, X13)
	REDUCE(Y6, X6, X14)
	REDUCE(Y7, X7, X15)

	TESTQ CX, CX
	JE   dstore
dtail:
	VMOVSD (SI), X8
	VMOVSD (DI), X9
	VMOVSD (R8), X10
	VFMADD231SD X8, X10, X0
	VFMADD231SD X9, X10, X4
	VMOVSD (R9), X10
	VFMADD231SD X8, X10, X1
	VFMADD231SD X9, X10, X5
	VMOVSD (R10), X10
	VFMADD231SD X8, X10, X2
	VFMADD231SD X9, X10, X6
	VMOVSD (R11), X10
	VFMADD231SD X8, X10, X3
	VFMADD231SD X9, X10, X7
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ CX
	JNE  dtail

dstore:
	VMOVSD X0, s00+24(FP)
	VMOVSD X1, s01+32(FP)
	VMOVSD X2, s02+40(FP)
	VMOVSD X3, s03+48(FP)
	VMOVSD X4, s10+56(FP)
	VMOVSD X5, s11+64(FP)
	VMOVSD X6, s12+72(FP)
	VMOVSD X7, s13+80(FP)
	VZEROUPPER
	RET
