package compress

import (
	"math"
	"sync"

	"adafl/internal/tensor"
)

// Bit masks of an IEEE-754 double: the sign bit, and the exponent field
// that is all ones exactly for ±Inf and NaN.
const (
	signMask = 1 << 63
	expMask  = 0x7FF << 52
)

// finite reports whether x is neither NaN nor ±Inf. The selection path
// treats non-finite coordinates as zero magnitude: a NaN inside the
// quickselect partition compares false against everything and can leave
// the pivot ordering — and with it the loop bounds — inconsistent, and a
// ±Inf would pass every threshold and be transmitted verbatim, poisoning
// the server-side aggregate.
func finite(x float64) bool {
	return math.Float64bits(x)&expMask != expMask
}

// scrub returns x, or 0 when x is non-finite.
func scrub(x float64) float64 {
	if !finite(x) {
		x = 0
	}
	return x
}

// finiteAbs returns |x| with non-finite values ranked as zero magnitude.
// The magnitude's bit pattern is below expMask exactly when x is finite,
// so the test is one unsigned compare on the cleared sign.
func finiteAbs(x float64) float64 {
	b := math.Float64bits(x) &^ signMask
	if b >= expMask {
		b = 0
	}
	return math.Float64frombits(b)
}

// quickselect returns the element of rank target (ascending) of a using
// an iterative Hoare quickselect (O(n) expected); a is reordered. On
// return every element after a[target] is ≥ it and every element before
// it is ≤ it. a must hold no NaN.
func quickselect(a []float64, target int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		pivot := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if target <= j {
			hi = j
		} else if target >= i {
			lo = i
		} else {
			break
		}
	}
	return a[target]
}

// Sampled threshold estimation. A fixed-stride sample of sampleSize
// magnitudes gives a lower bound on the k-th largest magnitude; only
// coordinates at or above it take part in the exact select. Vectors
// shorter than minSampledLen select over every finite coordinate.
const (
	sampleSize    = 2048
	minSampledLen = 4 * sampleSize
)

// sampledLowerBound estimates, from a fixed-stride sample of v, a
// magnitude t > 0 that at least k coordinates of v likely reach. It asks
// the sample for its r-th largest value, where r is the expected number
// of sampled top-k coordinates plus four standard deviations and a
// constant, so the bound errs low. It returns 0 when there is no useful
// bound: v is short, k is too large a share of v, or the sample's r-th
// largest magnitude is zero. buf needs sampleSize capacity and is
// clobbered.
func sampledLowerBound(v []float64, k int, buf []float64) float64 {
	n := len(v)
	if n < minSampledLen {
		return 0
	}
	expect := float64(sampleSize) * float64(k) / float64(n)
	r := int(math.Ceil(expect + 4*math.Sqrt(expect) + 8))
	if r >= sampleSize {
		return 0
	}
	stride := n / sampleSize
	sample := buf[:sampleSize]
	for j := range sample {
		sample[j] = finiteAbs(v[j*stride+stride/2])
	}
	return quickselect(sample, sampleSize-r)
}

// collectCandidates writes the index and magnitude of every finite
// coordinate with |v| ≥ t (t ≥ 0 and finite; 0 takes every finite
// coordinate) into cand and mags, in index order, and returns their
// count. Both buffers need len(v) capacity. The loop stores every
// coordinate and advances the cursor only for a candidate, so it has no
// data-dependent branch.
func collectCandidates(v []float64, t float64, cand []int32, mags []float64) int {
	lo := math.Float64bits(t)
	span := uint64(expMask) - lo // lo ≤ b < expMask ⇔ b-lo < span
	cand, mags = cand[:len(v)], mags[:len(v)]
	m := 0
	for i, x := range v {
		b := math.Float64bits(x) &^ signMask
		cand[m] = int32(i)
		mags[m] = math.Float64frombits(b)
		if b-lo < span {
			m++
		}
	}
	return m
}

// countAbove returns how many of a exceed thr.
func countAbove(a []float64, thr float64) int {
	n := 0
	for _, x := range a {
		if x > thr {
			n++
		}
	}
	return n
}

// selectBuffers are a codec's own SelectTopKScratch buffers, grown to the
// gradient's length on first use and reused by every later encode.
type selectBuffers struct {
	mags []float64
	cand []int32
}

func (b *selectBuffers) selectTopK(v []float64, k int) *Sparse {
	if cap(b.mags) < len(v) {
		b.mags = make([]float64, len(v))
		b.cand = make([]int32, len(v))
	}
	return SelectTopKScratch(v, k, b.mags, b.cand)
}

// int32Pool backs SelectTopK's candidate buffer, as tensor's scratch pool
// backs its magnitudes.
var int32Pool sync.Pool

// SelectTopK builds a sparse message from the k largest-magnitude
// coordinates of v. Ties at the threshold are resolved by coordinate order
// and the result is truncated to exactly k entries. The selection buffers
// are borrowed from shared pools; stateful codecs that encode every round
// should prefer SelectTopKScratch with their own buffers.
func SelectTopK(v []float64, k int) *Sparse {
	if k <= 0 {
		panic("compress: non-positive k")
	}
	if k >= len(v) {
		return denseFinite(v)
	}
	scratch := tensor.GetScratch(len(v))
	cand, _ := int32Pool.Get().(*[]int32)
	if cand == nil || cap(*cand) < len(v) {
		buf := make([]int32, len(v))
		cand = &buf
	}
	s := SelectTopKScratch(v, k, scratch, *cand)
	tensor.PutScratch(scratch)
	int32Pool.Put(cand)
	return s
}

// SelectTopKScratch is SelectTopK with caller-provided buffers of
// capacity ≥ len(v): scratch for magnitudes and cand for candidate
// indices. Their contents are clobbered. A nil or too-small buffer falls
// back to the shared pools.
//
// The selection is exact. Non-finite coordinates rank as zero magnitude
// and are never sent, so the candidates are finite coordinates, and a
// sampled lower bound t (sampledLowerBound) narrows them to |v| ≥ t in
// one pass; the quickselect then runs on the candidates' magnitudes only.
// When at least k coordinates reach t, the k-th largest magnitude thr is
// ≥ t, so every coordinate at or above thr is a candidate and the
// candidates' k-th largest magnitude is thr itself. When fewer than k
// reach t, or there is no bound, every finite coordinate is a candidate.
// The message is the candidates strictly above thr plus the first ties at
// thr in index order — every candidate when there are at most k — in
// ascending index order.
func SelectTopKScratch(v []float64, k int, scratch []float64, cand []int32) *Sparse {
	if k <= 0 {
		panic("compress: non-positive k")
	}
	if k >= len(v) {
		return denseFinite(v)
	}
	if cap(scratch) < len(v) || cap(cand) < len(v) {
		return SelectTopK(v, k)
	}
	mags := scratch[:len(v)]
	t := sampledLowerBound(v, k, mags)
	m := collectCandidates(v, t, cand, mags)
	if m < k && t > 0 {
		// The sample overestimated the threshold.
		m = collectCandidates(v, 0, cand, mags)
	}
	thr, ties := -1.0, 0 // at most k candidates: every one is sent
	if m > k {
		thr = quickselect(mags[:m], m-k)
		ties = k - countAbove(mags[m-k+1:m], thr)
	}
	s := newSparseCap(len(v), min(m, k))
	for _, i := range cand[:m] {
		x := v[i]
		if a := math.Abs(x); a > thr || (a == thr && ties > 0) {
			if a == thr {
				ties--
			}
			s.Indices = append(s.Indices, i)
			s.Values = append(s.Values, x)
		}
	}
	return s
}

func newSparseCap(dim, k int) *Sparse {
	return &Sparse{Dim: dim, Indices: make([]int32, 0, k), Values: make([]float64, 0, k)}
}

// denseFinite is the k ≥ len(v) fast path: every finite coordinate is
// transmitted, non-finite ones are dropped (zero magnitude). With an
// all-finite input it is equivalent to NewSparseDense.
func denseFinite(v []float64) *Sparse {
	s := newSparseCap(len(v), len(v))
	for i, x := range v {
		if !finite(x) {
			continue
		}
		s.Indices = append(s.Indices, int32(i))
		s.Values = append(s.Values, x)
	}
	return s
}

// Codec compresses a gradient vector into a sparse message. Encode may be
// stateful (error accumulation); Ratio is the requested byte-level
// compression factor for this call, letting AdaFL vary it round to round.
type Codec interface {
	Name() string
	Encode(grad []float64, ratio float64) *Sparse
	// Reset clears any client-local state (accumulators).
	Reset()
}

// Identity transmits the gradient uncompressed regardless of ratio.
type Identity struct{}

// Name implements Codec.
func (Identity) Name() string { return "identity" }

// Encode implements Codec.
func (Identity) Encode(grad []float64, _ float64) *Sparse { return NewSparseDense(grad) }

// Reset implements Codec.
func (Identity) Reset() {}

// TopK is magnitude sparsification without error feedback: the classic
// baseline that simply drops small coordinates. The only state is the
// reused selection buffers, so one instance must not be shared between
// concurrently-encoding clients.
type TopK struct {
	sel selectBuffers
}

// Name implements Codec.
func (*TopK) Name() string { return "topk" }

// Encode implements Codec.
func (t *TopK) Encode(grad []float64, ratio float64) *Sparse {
	return t.sel.selectTopK(grad, KForRatio(len(grad), ratio))
}

// Reset implements Codec.
func (t *TopK) Reset() {}
