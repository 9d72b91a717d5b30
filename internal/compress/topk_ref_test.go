package compress

import (
	"encoding/binary"
	"math"
	"reflect"
	"sort"
	"testing"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// referenceTopK is the sort-based specification of SelectTopK: the
// threshold is the k-th largest magnitude (non-finite entries ranked as
// zero) of a fully sorted copy; the message is every finite coordinate
// strictly above it, then coordinates equal to it in index order until k
// entries are taken, sorted by index.
func referenceTopK(v []float64, k int) *Sparse {
	if k >= len(v) {
		return denseFinite(v)
	}
	abs := make([]float64, len(v))
	for i, x := range v {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			abs[i] = math.Abs(x)
		}
	}
	sort.Float64s(abs)
	thr := abs[len(abs)-k]
	s := &Sparse{Dim: len(v), Indices: make([]int32, 0, k), Values: make([]float64, 0, k)}
	for i, x := range v {
		if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) > thr {
			s.Indices = append(s.Indices, int32(i))
			s.Values = append(s.Values, x)
		}
	}
	for i, x := range v {
		if len(s.Indices) >= k {
			break
		}
		if math.Abs(x) == thr {
			s.Indices = append(s.Indices, int32(i))
			s.Values = append(s.Values, x)
		}
	}
	sort.Sort(refByIndex{s})
	return s
}

type refByIndex struct{ s *Sparse }

func (b refByIndex) Len() int           { return len(b.s.Indices) }
func (b refByIndex) Less(i, j int) bool { return b.s.Indices[i] < b.s.Indices[j] }
func (b refByIndex) Swap(i, j int) {
	b.s.Indices[i], b.s.Indices[j] = b.s.Indices[j], b.s.Indices[i]
	b.s.Values[i], b.s.Values[j] = b.s.Values[j], b.s.Values[i]
}

// sameSparse compares two messages bit for bit: DeepEqual alone would
// equate -0 with 0.
func sameSparse(a, b *Sparse) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// checkSelectors requires every selection entry point to reproduce the
// reference on (v, k), and leaves v unchanged.
func checkSelectors(t *testing.T, name string, v []float64, k int) {
	t.Helper()
	orig := append([]float64(nil), v...)
	want := referenceTopK(v, k)
	got := map[string]*Sparse{
		"SelectTopK":        SelectTopK(v, k),
		"SelectTopKScratch": SelectTopKScratch(v, k, make([]float64, len(v)), make([]int32, len(v))),
		// Dirty, oversized buffers must not leak into the result.
		"SelectTopKScratch/reused": SelectTopKScratch(v, k, dirtyFloats(len(v)+3), dirtyInt32s(len(v)+3)),
		"SelectTopKScratch/small":  SelectTopKScratch(v, k, nil, make([]int32, 1)),
	}
	for entry, s := range got {
		if !sameSparse(s, want) {
			t.Fatalf("%s: %s(n=%d, k=%d) differs from the reference:\n got  %d entries %v\n want %d entries %v",
				name, entry, len(v), k, s.NNZ(), head(s.Indices), want.NNZ(), head(want.Indices))
		}
	}
	for i := range v {
		if math.Float64bits(v[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("%s: selection modified its input at %d", name, i)
		}
	}
}

func head(idx []int32) []int32 {
	if len(idx) > 12 {
		return idx[:12]
	}
	return idx
}

func dirtyFloats(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Inf(1)
	}
	return b
}

func dirtyInt32s(n int) []int32 {
	b := make([]int32, n)
	for i := range b {
		b[i] = -1
	}
	return b
}

// normalVec draws n standard normals from seed.
func normalVec(n int, seed uint64) []float64 {
	r := stats.NewRNG(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Norm()
	}
	return v
}

// sampleSpikes builds a vector whose sampled positions hold magnitude 100
// and every other position magnitude 1, so the sample overestimates the
// threshold of any k above sampleSize.
func sampleSpikes(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	stride := n / sampleSize
	for j := 0; j < sampleSize; j++ {
		v[j*stride+stride/2] = -100
	}
	return v
}

// kSweep lists the k values each vector is checked at: the extremes, the
// selections the paper's ratios produce (4×, 20×, 210×) and a half split.
func kSweep(n int) []int {
	ks := []int{1, 2, n / 2, n - 1, n, n + 5}
	for _, r := range []float64{4, 20, 210} {
		ks = append(ks, KForRatio(n, r))
	}
	var out []int
	for _, k := range ks {
		if k >= 1 {
			out = append(out, k)
		}
	}
	return out
}

func TestSelectTopKMatchesReference(t *testing.T) {
	ties := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64((i*7919)%5) * 0.25
			if i%3 == 0 {
				v[i] = -v[i]
			}
		}
		return v
	}
	nonFinite := func(n int) []float64 {
		v := normalVec(n, 9)
		for i := 0; i < n; i += 97 {
			switch (i / 97) % 4 {
			case 0:
				v[i] = math.NaN()
			case 1:
				v[i] = math.Inf(1)
			case 2:
				v[i] = math.Inf(-1)
			default:
				v[i] = math.Copysign(0, -1)
			}
		}
		return v
	}
	mostlyZero := func(n int) []float64 {
		v := make([]float64, n)
		r := stats.NewRNG(4)
		for i := range v {
			if r.Float64() < 0.02 {
				v[i] = r.Norm()
			}
		}
		return v
	}
	allNonFinite := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
		}
		return v
	}
	layered := func(n int) []float64 {
		// Blocks whose scales differ by orders of magnitude, like the
		// per-layer gradients of a CNN.
		v := normalVec(n, 11)
		for i := range v {
			v[i] *= math.Pow(10, float64((i/4096)%4)-2)
		}
		return v
	}
	cases := map[string]func(n int) []float64{
		"normal":         func(n int) []float64 { return normalVec(n, 3) },
		"ties":           ties,
		"non-finite":     nonFinite,
		"all-zero":       func(n int) []float64 { return make([]float64, n) },
		"all-non-finite": allNonFinite,
		"mostly-zero":    mostlyZero,
		"layered":        layered,
		"sample-spikes":  sampleSpikes,
	}
	for name, gen := range cases {
		for _, n := range []int{1, 7, sampleSize - 1, minSampledLen, 3*minSampledLen + 17} {
			if name == "sample-spikes" && n < sampleSize {
				continue
			}
			v := gen(n)
			for _, k := range kSweep(n) {
				checkSelectors(t, name, v, k)
			}
		}
	}
}

// TestSelectTopKShortfallFallback pins that the sample-spikes input really
// takes the shortfall path — fewer than k coordinates reach the sampled
// bound — and still matches the reference.
func TestSelectTopKShortfallFallback(t *testing.T) {
	n := 20000
	v := sampleSpikes(n)
	k := KForRatio(n, 4)
	mags := make([]float64, n)
	lo := sampledLowerBound(v, k, mags)
	if lo != 100 {
		t.Fatalf("sampled bound = %v, want 100", lo)
	}
	if m := collectCandidates(v, lo, make([]int32, n), mags); m >= k {
		t.Fatalf("%d candidates for k=%d: the input no longer forces a shortfall", m, k)
	}
	checkSelectors(t, "sample-spikes", v, k)
}

// TestSelectTopKSampledPathTaken pins the other side: on a smooth
// gradient at each paper ratio the sampled bound admits at least k and at
// most a fifth of the coordinates.
func TestSelectTopKSampledPathTaken(t *testing.T) {
	n := 431080
	v := normalVec(n, 5)
	mags := make([]float64, n)
	cand := make([]int32, n)
	for _, r := range []float64{4, 20, 210} {
		k := KForRatio(n, r)
		lo := sampledLowerBound(v, k, mags)
		if lo <= 0 {
			t.Fatalf("ratio %v: no sampled bound", r)
		}
		if m := collectCandidates(v, lo, cand, mags); m < k || m > n/5 {
			t.Fatalf("ratio %v: %d candidates for k=%d (n=%d)", r, m, k, n)
		}
	}
}

// referenceDGC is DGC.Encode written pass by pass on top of tensor's
// vector helpers and referenceTopK.
type referenceDGC struct {
	DGC
	g []float64
}

func (d *referenceDGC) encode(grad []float64, ratio float64) *Sparse {
	if d.u == nil {
		d.u = make([]float64, len(grad))
		d.v = make([]float64, len(grad))
	}
	d.g = append(d.g[:0], grad...)
	for i, x := range d.g {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			d.g[i] = 0
		}
	}
	if d.ClipNorm > 0 {
		tensor.ClipNorm(d.g, d.ClipNorm)
	}
	decay := d.ResidualDecay
	if decay == 0 {
		decay = 1
	}
	for i, x := range d.g {
		d.u[i] = d.Momentum*d.u[i] + x
		d.v[i] = decay*d.v[i] + d.u[i]
	}
	msg := referenceTopK(d.v, KForRatio(len(grad), ratio))
	if d.MsgClipFactor > 0 {
		bound := d.MsgClipFactor * tensor.Norm2(d.g)
		if n := tensor.Norm2(msg.Values); n > bound && n > 0 {
			tensor.ScaleVec(msg.Values, bound/n)
		}
	}
	for i, idx := range msg.Indices {
		d.u[idx] = 0
		d.v[idx] -= msg.Values[i]
	}
	return msg
}

// TestCodecsMatchReference drives the TopK and DGC codecs over several
// rounds and ratios and requires every message, and DGC's accumulators,
// to equal the reference's bit for bit.
func TestCodecsMatchReference(t *testing.T) {
	n := 3*minSampledLen + 5
	configs := []DGC{
		{Momentum: 0.9, ClipNorm: 10},
		{Momentum: 0.5, ClipNorm: 1e-3, MsgClipFactor: 2, ResidualDecay: 0.8},
		{},
	}
	for ci, cfg := range configs {
		d := cfg
		ref := &referenceDGC{DGC: cfg}
		topk := &TopK{}
		for round := 0; round < 8; round++ {
			g := normalVec(n, uint64(100*ci+round))
			if round == 3 {
				g[5], g[77], g[901] = math.NaN(), math.Inf(1), math.Inf(-1)
			}
			ratio := []float64{210, 20, 4, 1.5, 1}[round%5]
			if got, want := d.Encode(g, ratio), ref.encode(g, ratio); !sameSparse(got, want) {
				t.Fatalf("config %d round %d: DGC message differs from the reference", ci, round)
			}
			if !reflect.DeepEqual(d.u, ref.u) || !reflect.DeepEqual(d.v, ref.v) {
				t.Fatalf("config %d round %d: DGC accumulators differ from the reference", ci, round)
			}
			if got, want := topk.Encode(g, ratio), referenceTopK(g, KForRatio(n, ratio)); !sameSparse(got, want) {
				t.Fatalf("config %d round %d: TopK message differs from the reference", ci, round)
			}
		}
	}
}

// TestEncodeAllocatesOnlyMessage pins the steady-state allocation count
// of the top-k codecs: after the first call grows the codec's own
// buffers, an encode allocates the outgoing Sparse and its two slices and
// nothing else — no pool traffic, no sort, no working copies.
func TestEncodeAllocatesOnlyMessage(t *testing.T) {
	g := normalVec(3*minSampledLen, 8)
	codecs := map[string]Codec{
		"dgc":     &DGC{Momentum: 0.9, ClipNorm: 10, MsgClipFactor: 2},
		"dgc-raw": &DGC{},
		"topk":    &TopK{},
	}
	for name, c := range codecs {
		for _, ratio := range []float64{210, 20, 4, 1.5} {
			c.Encode(g, ratio)
			if a := testing.AllocsPerRun(20, func() { c.Encode(g, ratio) }); a != 3 {
				t.Errorf("%s at ratio %v: %v allocs per encode, want 3", name, ratio, a)
			}
		}
	}
}

// FuzzSelectTopK checks SelectTopK and SelectTopKScratch against the
// sort-based reference on generated vectors long enough for the sampled
// path, shaped by mode (smooth, tied, non-finite, sample-aligned spikes,
// raw bit patterns) and overwritten in places by the raw bytes.
func FuzzSelectTopK(f *testing.F) {
	f.Add(uint64(1), uint32(20000), uint32(2500), uint8(0), []byte{})
	f.Add(uint64(2), uint32(9000), uint32(1), uint8(1), []byte{})
	f.Add(uint64(3), uint32(30000), uint32(29999), uint8(2), []byte{})
	f.Add(uint64(4), uint32(20000), uint32(5000), uint8(3), []byte{})
	f.Add(uint64(5), uint32(12000), uint32(300), uint8(4), []byte{0, 0, 0, 0, 0, 0, 0xF0, 0x7F, 1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint64(6), uint32(100), uint32(10), uint8(0), []byte{0, 0, 0, 0, 0, 0, 0xF8, 0x7F})
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, kRaw uint32, mode uint8, raw []byte) {
		n := int(nRaw%40000) + 1
		k := int(kRaw%uint32(n)) + 1
		v := normalVec(n, seed)
		switch mode % 5 {
		case 1:
			for i := range v {
				v[i] = math.Round(v[i] * 2)
			}
		case 2:
			for i := range v {
				if i%13 == 0 {
					v[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}[(i/13)%4]
				}
			}
		case 3:
			if n >= sampleSize {
				v = sampleSpikes(n)
			}
		case 4:
			for i := range v {
				v[i] = math.Float64frombits(uint64(i) * 0x9E3779B97F4A7C15)
			}
		}
		for j := 0; j+8 <= len(raw); j += 8 {
			pos := int(binary.LittleEndian.Uint32(raw[j:])) % n
			v[pos] = math.Float64frombits(binary.LittleEndian.Uint64(raw[j:]))
		}
		checkSelectors(t, "fuzz", v, k)
	})
}
