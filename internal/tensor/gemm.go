package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Blocked GEMM kernels.
//
// All four matmul variants (MatMulInto, MatMulTransposeA, MatMulTransposeB,
// MatMulTransposeBAdd) have two implementations. On CPUs with AVX2+FMA
// (simdEnabled) the axpy forms (c = a@b, c += aᵀ@b) run a 4×8
// register-tiled assembly kernel that keeps each C tile in YMM registers
// for the whole reduction, and the dot forms (c = a@bᵀ) run 2×4 and 1×4
// assembly dot tiles. Everywhere else a pure-Go blocked kernel runs: an
// outer cache-blocking loop nest (KC over the reduction dimension, NC over
// output columns) around a 4×4 register micro-kernel. The im2col lowering
// in internal/nn funnels all convolution work through these kernels, so
// they are the hot path of every experiment in the repository.
//
// Large products additionally fan out over disjoint row blocks of C to
// long-lived helper goroutines. The fan-out is gated twice: products below
// minParallelWork multiply-adds stay serial, and helpers are drawn from a
// global token budget (SetMatMulWorkers) shared by every concurrent
// matmul, so client-level parallelism in fl.SyncEngine cannot
// oversubscribe the machine — at most budget-1 helpers run GEMM work at
// once no matter how many clients train at once. Each row of C is computed
// entirely by one worker with a fixed loop structure, so results are
// bit-identical regardless of the worker count — parallel runs stay
// deterministic.

const (
	// gemmKC blocks the reduction dimension so the active A panel and B
	// panel rows stay cache-resident while a C tile is accumulated.
	gemmKC = 256
	// gemmNC blocks output columns so the C tile rows being updated fit in
	// L1 alongside the streamed B rows.
	gemmNC = 1024
	// gemmMR is the micro-kernel height (rows of C per register tile).
	gemmMR = 4
	// gemmPanelBytes bounds the kc×panel block of B that the SIMD axpy
	// kernel streams past every 4-row block of its range, so the block
	// stays in L2 while the row blocks reuse it.
	gemmPanelBytes = 256 << 10
	// gemmMinKC is the shortest reduction chunk the SIMD axpy kernel cuts
	// a long reduction into: each chunk costs one load and store of the C
	// tile.
	gemmMinKC = 64
	// minParallelWork is the m·k·n multiply-add count below which a product
	// runs serially: small matmuls finish before a goroutine handoff pays
	// for itself.
	minParallelWork = 1 << 18
)

var (
	// matmulBudget is the total worker budget (including the calling
	// goroutine); helperTokens holds the currently available helper slots.
	matmulBudget atomic.Int64
	helperTokens atomic.Int64
)

func init() { SetMatMulWorkers(runtime.GOMAXPROCS(0)) }

// SetMatMulWorkers sets the global matmul worker budget: the maximum number
// of goroutines (including callers) simultaneously executing GEMM work
// across the whole process. n < 1 is treated as 1 (fully serial). The
// budget is shared by all concurrent matmuls, so setting it to GOMAXPROCS
// keeps intra-op and inter-op parallelism jointly bounded.
func SetMatMulWorkers(n int) {
	if n < 1 {
		n = 1
	}
	old := matmulBudget.Swap(int64(n))
	if old == 0 {
		// First call (from init): the zero-value state has no helper
		// tokens, i.e. behaves like budget 1.
		old = 1
	}
	helperTokens.Add(int64(n) - old)
}

// MatMulWorkers returns the current worker budget.
func MatMulWorkers() int { return int(matmulBudget.Load()) }

// acquireHelpers grabs up to max helper tokens without blocking.
func acquireHelpers(max int) int {
	if max <= 0 {
		return 0
	}
	got := 0
	for got < max {
		free := helperTokens.Load()
		if free <= 0 {
			break
		}
		take := free
		if take > int64(max-got) {
			take = int64(max - got)
		}
		if helperTokens.CompareAndSwap(free, free-take) {
			got += int(take)
		}
	}
	return got
}

func releaseHelpers(n int) {
	if n > 0 {
		helperTokens.Add(int64(n))
	}
}

// simdEnabled selects the AVX2+FMA micro-kernels when the CPU supports
// them; the pure-Go blocked kernels are the universal fallback. Tests flip
// this to exercise both paths.
var simdEnabled = detectSIMD()

// planHelpers acquires helper tokens for a product of the given row count
// and m·k·n multiply-add work, returning 0 when the product should run
// serially (too small, or no budget free).
func planHelpers(m, work int) int {
	if work < minParallelWork || m < 2*gemmMR {
		return 0
	}
	return acquireHelpers(m/gemmMR - 1)
}

// gemmForm names the product a gemmTask computes.
type gemmForm uint8

const (
	formAB     gemmForm = iota // c = a @ b
	formATB                    // c += aᵀ @ b
	formABT                    // c = a @ bᵀ
	formABTAdd                 // c += a @ bᵀ
)

// gemmTask is one row range [i0,i1) of one product. It travels to a helper
// by value, so handing out work allocates nothing.
type gemmTask struct {
	form    gemmForm
	c, a, b []float64
	k, m, n int
	i0, i1  int
}

func (t *gemmTask) run() {
	switch t.form {
	case formAB:
		gemmRows(t.c, t.a, t.b, t.k, t.n, t.i0, t.i1)
	case formATB:
		gemmTARows(t.c, t.a, t.b, t.k, t.m, t.n, t.i0, t.i1)
	default:
		gemmTBRows(t.c, t.a, t.b, t.k, t.n, t.i0, t.i1, t.form == formABTAdd)
	}
}

// gemmHelper is one long-lived fan-out goroutine; its two channels are
// its task slot. Helpers are started on first demand and then live for
// the process, parked on work: the token budget caps how many run at
// once, so at most (largest budget ever set) - 1 of them exist.
type gemmHelper struct {
	work chan gemmTask
	done chan struct{}
	next *gemmHelper // link in the idle list or in a caller's crew
}

func (h *gemmHelper) loop() {
	for t := range h.work {
		t.run()
		h.done <- struct{}{}
	}
}

// idleHelpers is the stack of parked helpers.
var idleHelpers struct {
	mu   sync.Mutex
	head *gemmHelper
}

// takeHelpers pops n idle helpers as a linked crew, starting new ones when
// too few are parked.
func takeHelpers(n int) *gemmHelper {
	var crew *gemmHelper
	idleHelpers.mu.Lock()
	defer idleHelpers.mu.Unlock()
	for ; n > 0; n-- {
		h := idleHelpers.head
		if h != nil {
			idleHelpers.head = h.next
		} else {
			h = &gemmHelper{work: make(chan gemmTask), done: make(chan struct{})}
			go h.loop()
		}
		h.next = crew
		crew = h
	}
	return crew
}

// parkHelpers pushes a finished crew back onto the idle stack.
func parkHelpers(crew *gemmHelper) {
	idleHelpers.mu.Lock()
	defer idleHelpers.mu.Unlock()
	for crew != nil {
		h := crew
		crew = h.next
		h.next = idleHelpers.head
		idleHelpers.head = h
	}
}

// runRows computes rows [0, t.m) of t's product. A large enough product is
// split across the calling goroutine and helpers in chunks aligned to
// gemmMR, so every worker runs full micro-kernel tiles; per-row results do
// not depend on the partition, so output is bit-identical to a serial run.
func runRows(t gemmTask) {
	m := t.m
	helpers := planHelpers(m, m*t.k*t.n)
	if helpers == 0 {
		t.i0, t.i1 = 0, m
		t.run()
		return
	}
	chunk := (m + helpers) / (helpers + 1)
	chunk = (chunk + gemmMR - 1) / gemmMR * gemmMR
	parts := (m + chunk - 1) / chunk
	releaseHelpers(helpers - (parts - 1))
	crew := takeHelpers(parts - 1)
	s := chunk
	for h := crew; h != nil; h = h.next {
		t.i0, t.i1 = s, min(s+chunk, m)
		h.work <- t
		s += chunk
	}
	t.i0, t.i1 = 0, min(chunk, m)
	t.run()
	for h := crew; h != nil; h = h.next {
		<-h.done
	}
	// Park before releasing the tokens, so a caller that wins them finds
	// these helpers idle instead of starting new ones.
	parkHelpers(crew)
	releaseHelpers(parts - 1)
}

// MatMulInto computes c = a @ b into an existing (m×n) tensor, where a is
// (m×k) and b is (k×n).
func MatMulInto(c, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(1) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch %v x %v", a.shape, b.shape))
	}
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	if c.Rank() != 2 || c.Dim(0) != m || c.Dim(1) != n {
		panic("tensor: MatMulInto output shape mismatch")
	}
	runRows(gemmTask{form: formAB, c: c.Data, a: a.Data, b: b.Data, k: k, m: m, n: n})
}

// gemmRows computes rows [i0,i1) of c = a @ b (overwriting them).
func gemmRows(c, a, b []float64, k, n, i0, i1 int) {
	for i := i0; i < i1; i++ {
		row := c[i*n : (i+1)*n]
		for j := range row {
			row[j] = 0
		}
	}
	if simdEnabled {
		for i := fmaAxpyBlocks(c, a, b, k, n, i0, i1, k, 1); i < i1; i++ {
			gemmMicro1(c, a, b, k, n, i, 0, k, 0, n)
		}
		return
	}
	for pc := 0; pc < k; pc += gemmKC {
		pe := min(pc+gemmKC, k)
		for jc := 0; jc < n; jc += gemmNC {
			je := min(jc+gemmNC, n)
			i := i0
			for ; i+gemmMR <= i1; i += gemmMR {
				gemmMicro4(c, a, b, k, n, i, pc, pe, jc, je)
			}
			for ; i < i1; i++ {
				gemmMicro1(c, a, b, k, n, i, pc, pe, jc, je)
			}
		}
	}
}

// fmaAxpyBlocks accumulates c += A @ b over the full 4-row blocks of rows
// [i0,i1), where A(i,p) = a[i*rsa + p*psa], and returns the first row it
// left alone. Every element of those rows gets one fused multiply-add per
// reduction index p, in ascending p, starting from its value on entry:
// the 4×8 tile kernel does that in registers for the first n&^7 columns,
// the quad-axpy kernel (vector lanes, then fused scalar tail) for the
// rest.
//
// The reduction runs in chunks of kc rows of B, sized so a chunk's rows
// of the column panel stay in L2 while every row block streams them; C
// goes to memory and back between chunks, which rounds nothing. Without
// the chunking, a tile's k×8 column strip of B maps onto a few cache sets
// whenever B's row stride is a multiple of 4 KiB (n = 512) and is fetched
// from L3 for every row block.
func fmaAxpyBlocks(c, a, b []float64, k, n, i0, i1, rsa, psa int) int {
	iEnd := i0 + (i1-i0)/gemmMR*gemmMR
	if k == 0 || n == 0 || iEnd == i0 {
		return iEnd
	}
	n8 := n &^ 7
	kc := min(k, max(gemmMinKC, gemmPanelBytes/(8*n)))
	panel := max(8, gemmPanelBytes/(8*kc)&^7)
	for pc := 0; pc < k; pc += kc {
		kb := min(kc, k-pc)
		for jc := 0; jc < n8; jc += panel {
			w := min(panel, n8-jc)
			for i := i0; i < iEnd; i += gemmMR {
				fmaTile4x8(&c[i*n+jc], n, &a[i*rsa+pc*psa], rsa, psa, &b[pc*n+jc], n, kb, w/8)
			}
		}
	}
	if n8 < n {
		for i := i0; i < iEnd; i += gemmMR {
			for p := 0; p < k; p++ {
				ap := i*rsa + p*psa
				fmaAxpy4(&c[i*n+n8], &c[(i+1)*n+n8], &c[(i+2)*n+n8], &c[(i+3)*n+n8], &b[p*n+n8], n-n8,
					a[ap], a[ap+rsa], a[ap+2*rsa], a[ap+3*rsa])
			}
		}
	}
	return iEnd
}

// gemmMicro4 accumulates the contribution of A columns [pc,pe) into the
// 4×(je-jc) tile of C at rows i..i+3, columns jc..je, walking the tile in
// 4×4 register blocks.
func gemmMicro4(c, a, b []float64, k, n, i, pc, pe, jc, je int) {
	a0 := a[i*k+pc : i*k+pe]
	a1 := a[(i+1)*k+pc : (i+1)*k+pe]
	a2 := a[(i+2)*k+pc : (i+2)*k+pe]
	a3 := a[(i+3)*k+pc : (i+3)*k+pe]
	c0 := c[i*n : (i+1)*n]
	c1 := c[(i+1)*n : (i+2)*n]
	c2 := c[(i+2)*n : (i+3)*n]
	c3 := c[(i+3)*n : (i+4)*n]
	j := jc
	for ; j+4 <= je; j += 4 {
		var s00, s01, s02, s03 float64
		var s10, s11, s12, s13 float64
		var s20, s21, s22, s23 float64
		var s30, s31, s32, s33 float64
		off := pc*n + j
		for p := 0; p < len(a0); p++ {
			bp := b[off : off+4 : off+4]
			b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
			v := a0[p]
			s00 += v * b0
			s01 += v * b1
			s02 += v * b2
			s03 += v * b3
			v = a1[p]
			s10 += v * b0
			s11 += v * b1
			s12 += v * b2
			s13 += v * b3
			v = a2[p]
			s20 += v * b0
			s21 += v * b1
			s22 += v * b2
			s23 += v * b3
			v = a3[p]
			s30 += v * b0
			s31 += v * b1
			s32 += v * b2
			s33 += v * b3
			off += n
		}
		c0[j] += s00
		c0[j+1] += s01
		c0[j+2] += s02
		c0[j+3] += s03
		c1[j] += s10
		c1[j+1] += s11
		c1[j+2] += s12
		c1[j+3] += s13
		c2[j] += s20
		c2[j+1] += s21
		c2[j+2] += s22
		c2[j+3] += s23
		c3[j] += s30
		c3[j+1] += s31
		c3[j+2] += s32
		c3[j+3] += s33
	}
	for ; j < je; j++ {
		var s0, s1, s2, s3 float64
		off := pc*n + j
		for p := 0; p < len(a0); p++ {
			bv := b[off]
			s0 += a0[p] * bv
			s1 += a1[p] * bv
			s2 += a2[p] * bv
			s3 += a3[p] * bv
			off += n
		}
		c0[j] += s0
		c1[j] += s1
		c2[j] += s2
		c3[j] += s3
	}
}

// gemmMicro1 is the single-row remainder kernel (columns unrolled by 4).
func gemmMicro1(c, a, b []float64, k, n, i, pc, pe, jc, je int) {
	a0 := a[i*k+pc : i*k+pe]
	c0 := c[i*n : (i+1)*n]
	j := jc
	for ; j+4 <= je; j += 4 {
		var s0, s1, s2, s3 float64
		off := pc*n + j
		for p := 0; p < len(a0); p++ {
			bp := b[off : off+4 : off+4]
			v := a0[p]
			s0 += v * bp[0]
			s1 += v * bp[1]
			s2 += v * bp[2]
			s3 += v * bp[3]
			off += n
		}
		c0[j] += s0
		c0[j+1] += s1
		c0[j+2] += s2
		c0[j+3] += s3
	}
	for ; j < je; j++ {
		s := 0.0
		off := pc*n + j
		for p := 0; p < len(a0); p++ {
			s += a0[p] * b[off]
			off += n
		}
		c0[j] += s
	}
}

// MatMulTransposeB computes c = a @ bᵀ where a is (m×k) and b is (n×k),
// writing into the existing (m×n) tensor c. This avoids materialising the
// transpose in dense-layer backward passes.
func MatMulTransposeB(c, a, b *Tensor) {
	matMulTransposeB(c, a, b, false)
}

// MatMulTransposeBAdd computes c += a @ bᵀ where a is (m×k) and b is
// (n×k), accumulating into the existing (m×n) tensor c — the form
// weight-gradient accumulation across mini-batches wants.
func MatMulTransposeBAdd(c, a, b *Tensor) {
	matMulTransposeB(c, a, b, true)
}

func matMulTransposeB(c, a, b *Tensor, add bool) {
	if a.Rank() != 2 || b.Rank() != 2 || b.Dim(1) != a.Dim(1) {
		panic(fmt.Sprintf("tensor: MatMulTransposeB shape mismatch %v x %v", a.shape, b.shape))
	}
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	if c.Rank() != 2 || c.Dim(0) != m || c.Dim(1) != n {
		panic("tensor: MatMulTransposeB output shape mismatch")
	}
	form := formABT
	if add {
		form = formABTAdd
	}
	runRows(gemmTask{form: form, c: c.Data, a: a.Data, b: b.Data, k: k, m: m, n: n})
}

// gemmTBRows computes rows [i0,i1) of c = a @ bᵀ (dot-product form: both
// operands are traversed along contiguous rows).
func gemmTBRows(c, a, b []float64, k, n, i0, i1 int, add bool) {
	if !add {
		for i := i0; i < i1; i++ {
			row := c[i*n : (i+1)*n]
			for j := range row {
				row[j] = 0
			}
		}
	}
	if simdEnabled {
		gemmTBRowsFMA(c, a, b, k, n, i0, i1)
		return
	}
	for pc := 0; pc < k; pc += gemmKC {
		pe := min(pc+gemmKC, k)
		i := i0
		for ; i+gemmMR <= i1; i += gemmMR {
			a0 := a[i*k+pc : i*k+pe]
			a1 := a[(i+1)*k+pc : (i+1)*k+pe]
			a2 := a[(i+2)*k+pc : (i+2)*k+pe]
			a3 := a[(i+3)*k+pc : (i+3)*k+pe]
			c0 := c[i*n : (i+1)*n]
			c1 := c[(i+1)*n : (i+2)*n]
			c2 := c[(i+2)*n : (i+3)*n]
			c3 := c[(i+3)*n : (i+4)*n]
			j := 0
			for ; j+4 <= n; j += 4 {
				b0 := b[j*k+pc : j*k+pe]
				b1 := b[(j+1)*k+pc : (j+1)*k+pe]
				b2 := b[(j+2)*k+pc : (j+2)*k+pe]
				b3 := b[(j+3)*k+pc : (j+3)*k+pe]
				var s00, s01, s02, s03 float64
				var s10, s11, s12, s13 float64
				var s20, s21, s22, s23 float64
				var s30, s31, s32, s33 float64
				for p := 0; p < len(a0); p++ {
					bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
					v := a0[p]
					s00 += v * bv0
					s01 += v * bv1
					s02 += v * bv2
					s03 += v * bv3
					v = a1[p]
					s10 += v * bv0
					s11 += v * bv1
					s12 += v * bv2
					s13 += v * bv3
					v = a2[p]
					s20 += v * bv0
					s21 += v * bv1
					s22 += v * bv2
					s23 += v * bv3
					v = a3[p]
					s30 += v * bv0
					s31 += v * bv1
					s32 += v * bv2
					s33 += v * bv3
				}
				c0[j] += s00
				c0[j+1] += s01
				c0[j+2] += s02
				c0[j+3] += s03
				c1[j] += s10
				c1[j+1] += s11
				c1[j+2] += s12
				c1[j+3] += s13
				c2[j] += s20
				c2[j+1] += s21
				c2[j+2] += s22
				c2[j+3] += s23
				c3[j] += s30
				c3[j+1] += s31
				c3[j+2] += s32
				c3[j+3] += s33
			}
			for ; j < n; j++ {
				bj := b[j*k+pc : j*k+pe]
				var s0, s1, s2, s3 float64
				for p := 0; p < len(bj); p++ {
					bv := bj[p]
					s0 += a0[p] * bv
					s1 += a1[p] * bv
					s2 += a2[p] * bv
					s3 += a3[p] * bv
				}
				c0[j] += s0
				c1[j] += s1
				c2[j] += s2
				c3[j] += s3
			}
		}
		for ; i < i1; i++ {
			a0 := a[i*k+pc : i*k+pe]
			c0 := c[i*n : (i+1)*n]
			j := 0
			for ; j+4 <= n; j += 4 {
				b0 := b[j*k+pc : j*k+pe]
				b1 := b[(j+1)*k+pc : (j+1)*k+pe]
				b2 := b[(j+2)*k+pc : (j+2)*k+pe]
				b3 := b[(j+3)*k+pc : (j+3)*k+pe]
				var s0, s1, s2, s3 float64
				for p := 0; p < len(a0); p++ {
					v := a0[p]
					s0 += v * b0[p]
					s1 += v * b1[p]
					s2 += v * b2[p]
					s3 += v * b3[p]
				}
				c0[j] += s0
				c0[j+1] += s1
				c0[j+2] += s2
				c0[j+3] += s3
			}
			for ; j < n; j++ {
				bj := b[j*k+pc : j*k+pe]
				s := 0.0
				for p := 0; p < len(bj); p++ {
					s += a0[p] * bj[p]
				}
				c0[j] += s
			}
		}
	}
}

// gemmTBRowsFMA computes rows [i0,i1) of c += a @ bᵀ with the assembly
// dot tiles: two rows of A against four rows of B per fmaDot2x4 call, a
// last odd row through fmaDot4, all contiguous. Both give every output
// the same arithmetic, so the pairing does not change a bit. Blocks of B
// rows sit outside the row pairs, so a block stays in L2 while every pair
// streams it. Rows must be pre-zeroed unless accumulating.
func gemmTBRowsFMA(c, a, b []float64, k, n, i0, i1 int) {
	if k == 0 {
		return
	}
	n4 := n &^ 3
	jb := max(4, gemmPanelBytes/(8*k)&^3)
	for jc := 0; jc < n4; jc += jb {
		je := min(jc+jb, n4)
		i := i0
		for ; i+2 <= i1; i += 2 {
			c0 := c[i*n : (i+1)*n]
			c1 := c[(i+1)*n : (i+2)*n]
			for j := jc; j < je; j += 4 {
				s00, s01, s02, s03, s10, s11, s12, s13 := fmaDot2x4(&a[i*k], &b[j*k], k)
				c0[j] += s00
				c0[j+1] += s01
				c0[j+2] += s02
				c0[j+3] += s03
				c1[j] += s10
				c1[j+1] += s11
				c1[j+2] += s12
				c1[j+3] += s13
			}
		}
		if i < i1 {
			cr := c[i*n : (i+1)*n]
			for j := jc; j < je; j += 4 {
				s0, s1, s2, s3 := fmaDot4(&a[i*k],
					&b[j*k], &b[(j+1)*k], &b[(j+2)*k], &b[(j+3)*k], k)
				cr[j] += s0
				cr[j+1] += s1
				cr[j+2] += s2
				cr[j+3] += s3
			}
		}
	}
	for i := i0; i < i1; i++ {
		ar := a[i*k : (i+1)*k]
		cr := c[i*n : (i+1)*n]
		for j := n4; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			s := 0.0
			for p, av := range ar {
				s += av * bj[p]
			}
			cr[j] += s
		}
	}
}

// MatMulTransposeA computes c += aᵀ @ b where a is (k×m) and b is (k×n),
// accumulating into the existing (m×n) tensor c (callers zero it if needed;
// accumulation is what weight-gradient computation wants across batches).
func MatMulTransposeA(c, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || b.Dim(0) != a.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMulTransposeA shape mismatch %v x %v", a.shape, b.shape))
	}
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	if c.Rank() != 2 || c.Dim(0) != m || c.Dim(1) != n {
		panic("tensor: MatMulTransposeA output shape mismatch")
	}
	runRows(gemmTask{form: formATB, c: c.Data, a: a.Data, b: b.Data, k: k, m: m, n: n})
}

// gemmTARows accumulates rows [i0,i1) of c += aᵀ @ b (saxpy form: for each
// reduction step p, the B row p is streamed into four C rows at once; rows
// of C index columns of A, so the four A values sit contiguously).
func gemmTARows(c, a, b []float64, k, m, n, i0, i1 int) {
	if simdEnabled {
		for i := fmaAxpyBlocks(c, a, b, k, n, i0, i1, 1, m); i < i1; i++ {
			gemmTARow1(c, a, b, k, m, n, i, 0, n)
		}
		return
	}
	for jc := 0; jc < n; jc += gemmNC {
		je := min(jc+gemmNC, n)
		i := i0
		for ; i+gemmMR <= i1; i += gemmMR {
			c0 := c[i*n+jc : i*n+je]
			c1 := c[(i+1)*n+jc : (i+1)*n+je]
			c2 := c[(i+2)*n+jc : (i+2)*n+je]
			c3 := c[(i+3)*n+jc : (i+3)*n+je]
			for p := 0; p < k; p++ {
				ap := a[p*m+i : p*m+i+4 : p*m+i+4]
				a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
				br := b[p*n+jc : p*n+je]
				for j, bv := range br {
					c0[j] += a0 * bv
					c1[j] += a1 * bv
					c2[j] += a2 * bv
					c3[j] += a3 * bv
				}
			}
		}
		for ; i < i1; i++ {
			gemmTARow1(c, a, b, k, m, n, i, jc, je)
		}
	}
}

// gemmTARow1 is the single-row remainder of c += aᵀ @ b over columns
// [jc,je): one scalar axpy per reduction step, skipping zero A values.
func gemmTARow1(c, a, b []float64, k, m, n, i, jc, je int) {
	cr := c[i*n+jc : i*n+je]
	for p := 0; p < k; p++ {
		av := a[p*m+i]
		if av == 0 {
			continue
		}
		br := b[p*n+jc : p*n+je]
		for j, bv := range br {
			cr[j] += av * bv
		}
	}
}
