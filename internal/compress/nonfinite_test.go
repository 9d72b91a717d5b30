package compress

import (
	"math"
	"testing"
	"time"

	"adafl/internal/stats"
)

// run executes f with a deadline: the pre-fix quickselect could loop
// forever once a NaN corrupted the partition invariants, so these tests
// must not trust the selection path to return.
func run(t *testing.T, name string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not finish: selection hung on non-finite input", name)
	}
}

func assertFinite(t *testing.T, s *Sparse) {
	t.Helper()
	for i, v := range s.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("transmitted non-finite value %v at index %d", v, s.Indices[i])
		}
	}
}

// TestSelectTopKNaNRanksAsZero pins the headline case: a NaN in the
// input must neither hang the quickselect nor displace real coordinates.
func TestSelectTopKNaNRanksAsZero(t *testing.T) {
	run(t, "SelectTopK", func() {
		v := []float64{math.NaN(), 5, 4, 3, 2, 1}
		s := SelectTopK(v, 2)
		if len(s.Indices) != 2 || s.Indices[0] != 1 || s.Indices[1] != 2 {
			t.Fatalf("indices = %v, want [1 2]", s.Indices)
		}
		if s.Values[0] != 5 || s.Values[1] != 4 {
			t.Fatalf("values = %v, want [5 4]", s.Values)
		}
		assertFinite(t, s)
	})
}

// TestSelectTopKInfNotEmitted checks that ±Inf — which passes every
// magnitude threshold — is treated as zero magnitude, not transmitted.
func TestSelectTopKInfNotEmitted(t *testing.T) {
	run(t, "SelectTopK", func() {
		v := []float64{math.Inf(1), -7, math.Inf(-1), 6, 0.5, -0.25}
		s := SelectTopK(v, 2)
		if len(s.Indices) != 2 || s.Indices[0] != 1 || s.Indices[1] != 3 {
			t.Fatalf("indices = %v, want [1 3]", s.Indices)
		}
		assertFinite(t, s)
	})
}

// TestSelectTopKAllNonFinite degenerates to an empty message: every
// coordinate has zero magnitude, and zeros at the threshold may fill up
// to k slots — but non-finite values must not be among them.
func TestSelectTopKAllNonFinite(t *testing.T) {
	run(t, "SelectTopK", func() {
		v := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()}
		s := SelectTopK(v, 2)
		if len(s.Values) != 0 {
			t.Fatalf("selected %v from all-non-finite input", s.Values)
		}
	})
}

// TestSelectTopKDensePathScrubs covers k ≥ dim, where selection degrades
// to a dense copy that must still drop non-finite coordinates.
func TestSelectTopKDensePathScrubs(t *testing.T) {
	v := []float64{1, math.NaN(), -2, math.Inf(1)}
	s := SelectTopK(v, len(v))
	if len(s.Indices) != 2 || s.Indices[0] != 0 || s.Indices[1] != 2 {
		t.Fatalf("indices = %v, want [0 2]", s.Indices)
	}
	assertFinite(t, s)
}

// TestTopKCodecNonFinite drives the same property through the TopK codec
// at both sparse and dense ratios.
func TestTopKCodecNonFinite(t *testing.T) {
	grad := []float64{math.NaN(), 5, math.Inf(1), 3, 2, math.Inf(-1), 1, 0}
	codec := &TopK{}
	run(t, "TopK.Encode", func() {
		for _, ratio := range []float64{1, 2, 4} {
			s := codec.Encode(grad, ratio)
			assertFinite(t, s)
			if s.NNZ() == 0 {
				t.Fatalf("ratio %v: finite coordinates were dropped entirely", ratio)
			}
		}
	})
}

// TestDGCEncodeNonFinite checks the stateful codec end to end: encoding a
// gradient with NaN/±Inf must terminate, transmit only finite values, and
// leave the error-feedback accumulators clean so later rounds with good
// gradients are not poisoned by the one bad round.
func TestDGCEncodeNonFinite(t *testing.T) {
	d := &DGC{Momentum: 0.9, ClipNorm: 10, MsgClipFactor: 2}
	bad := []float64{math.NaN(), 4, math.Inf(1), -3, 2, math.Inf(-1), 1, 0.5}
	run(t, "DGC.Encode", func() {
		s := d.Encode(bad, 2)
		assertFinite(t, s)
	})
	if n := d.AccumulatedNorm(); math.IsNaN(n) || math.IsInf(n, 0) {
		t.Fatalf("accumulator poisoned after non-finite gradient: norm = %v", n)
	}
	// A clean follow-up round must also be clean on the wire.
	good := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	run(t, "DGC.Encode", func() {
		s := d.Encode(good, 2)
		assertFinite(t, s)
		if s.NNZ() == 0 {
			t.Fatal("clean round transmitted nothing")
		}
	})
}

// TestDAdaQuantEncodeNonFinite checks that a non-finite coordinate is
// zeroed before it reaches DAdaQuant's residual: the flush it rides in
// stays finite with a finite norm, and a later all-finite gradient is not
// poisoned by residue from the bad round.
func TestDAdaQuantEncodeNonFinite(t *testing.T) {
	d := NewDAdaQuant(4, 4, 1, stats.NewRNG(1))
	bad := make([]float64, 1000)
	for i := range bad {
		bad[i] = float64(i%7) - 3
	}
	bad[10], bad[20], bad[30] = math.NaN(), math.Inf(1), math.Inf(-1)
	for round, g := range [][]float64{bad, normalVec(1000, 2)} {
		for _, ratio := range []float64{1, 200} {
			s := d.Encode(g, ratio)
			assertFinite(t, s)
			if math.IsNaN(s.QuantNorm) || math.IsInf(s.QuantNorm, 0) || s.QuantNorm == 0 {
				t.Fatalf("round %d ratio %v: QuantNorm = %v", round, ratio, s.QuantNorm)
			}
			d.Commit()
		}
	}
}
