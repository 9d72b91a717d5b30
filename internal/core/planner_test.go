package core

import (
	"testing"

	"adafl/internal/stats"
)

// TestPlanScoresSparseIDs regression-tests the eviction aftermath on the
// socket server: client IDs are no longer dense 0..n-1, and planning over
// a sparse or shifted ID set must neither panic nor select absent clients.
func TestPlanScoresSparseIDs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 2
	cfg.Tau = 0
	cfg.Compression.WarmupRounds = 1
	p := NewSyncPlanner(cfg)

	// Warm-up over sparse IDs selects everyone at the warm-up ratio.
	warm, _ := p.PlanScores(0, map[int]float64{7: 0.9, 42: 0.2, 3: 0.5}, false)
	if len(warm) != 3 {
		t.Fatalf("warmup selected %d of 3", len(warm))
	}
	for i, id := range []int{3, 7, 42} {
		if warm[i].Client != id || warm[i].Ratio != cfg.Compression.WarmupRatio {
			t.Fatalf("warmup slot %d = %+v, want client %d at the warm-up ratio", i, warm[i], id)
		}
	}

	// Post-warm-up: IDs far beyond the number of candidates.
	scores := func() map[int]float64 { return map[int]float64{5: 0.9, 107: 0.8, 3000: 0.7} }
	for round := 1; round < 6; round++ {
		plan, _ := p.PlanScores(round, scores(), false)
		if len(plan) == 0 || len(plan) > cfg.K {
			t.Fatalf("round %d: plan size %d with K=%d", round, len(plan), cfg.K)
		}
		for _, pt := range plan {
			if _, ok := scores()[pt.Client]; !ok {
				t.Fatalf("round %d: selected absent client %d", round, pt.Client)
			}
			if pt.Ratio < 1 {
				t.Fatalf("round %d: ratio %f < 1", round, pt.Ratio)
			}
		}
	}
	// Fairness: over successive rounds every client must get selected at
	// least once despite a fixed score ordering.
	seen := map[int]bool{}
	for round := 1; round < 8; round++ {
		plan, _ := p.PlanScores(round, scores(), false)
		for _, pt := range plan {
			seen[pt.Client] = true
		}
	}
	if len(seen) != len(scores()) {
		t.Fatalf("rotation starved clients: only %d of %d ever selected", len(seen), len(scores()))
	}

	// An empty score set (every client evicted mid-round) plans nothing.
	if plan, _ := p.PlanScores(9, map[int]float64{}, false); len(plan) != 0 {
		t.Fatalf("empty scores planned %d clients", len(plan))
	}
}

// TestPlanScoresEmptySelectionFallsBack pins the τ-starvation fallback on
// the sparse entry point: with ExploreFrac 0 and every reported score
// below τ, Algorithm 1 selects nobody, and the planner must fall back to
// warm-up-style full participation rather than waste the round on an
// empty plan.
func TestPlanScoresEmptySelectionFallsBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 2
	cfg.Tau = 0.9
	cfg.ExploreFrac = 0
	cfg.Compression.WarmupRounds = 1
	p := NewSyncPlanner(cfg)

	scores := map[int]float64{1: 0.1, 5: 0.2, 9: 0.05} // all below τ
	plan, _ := p.PlanScores(3, scores, false)          // round 3: past warm-up
	if len(plan) != len(scores) {
		t.Fatalf("fallback planned %d of %d clients", len(plan), len(scores))
	}
	for _, pt := range plan {
		if _, ok := scores[pt.Client]; !ok {
			t.Fatalf("fallback selected absent client %d", pt.Client)
		}
		if pt.Ratio != cfg.Compression.WarmupRatio {
			t.Fatalf("client %d: ratio %v, want warm-up ratio %v", pt.Client, pt.Ratio, cfg.Compression.WarmupRatio)
		}
	}
	// The fallback must count as a selection for fairness bookkeeping.
	for id := range scores {
		if p.LastSel[id] != 3 {
			t.Fatalf("client %d: LastSel %d, want 3", id, p.LastSel[id])
		}
	}
}

// TestPlanScoresRelabeling is the sparse-ID property: planning over IDs
// 0..n-1 and over the shifted, sparse set 3i+7 gives the same plans under
// relabeling, round after round, with the same recency state — for every
// K, every reservation fraction, through warm-up, the zero-delta rule,
// the availability gate and the score multiplier.
func TestPlanScoresRelabeling(t *testing.T) {
	const n, rounds = 12, 14
	relabel := func(i int) int { return 3*i + 7 }
	for k := 1; k <= 10; k++ {
		for _, frac := range []float64{0, 0.4, 0.8, 1} {
			cfg := DefaultConfig()
			cfg.K = k
			cfg.ExploreFrac = frac
			cfg.Compression.WarmupRounds = 2
			round := 0
			dense, sparse := NewSyncPlanner(cfg), NewSyncPlanner(cfg)
			// Offline clients rotate with the round; ScoreMult favours
			// odd clients. Both are stated on the dense label.
			dense.Eligible = func(i int) bool { return (i+round)%5 != 0 }
			dense.ScoreMult = func(i int) float64 { return 1 + 0.1*float64(i%2) }
			sparse.Eligible = func(id int) bool { return dense.Eligible((id - 7) / 3) }
			sparse.ScoreMult = func(id int) float64 { return dense.ScoreMult((id - 7) / 3) }

			rng := stats.NewRNG(uint64(100*k) + uint64(10*frac))
			for ; round < rounds; round++ {
				ds, ss := map[int]float64{}, map[int]float64{}
				for i := 0; i < n; i++ {
					s := rng.Float64()
					ds[i], ss[relabel(i)] = s, s
				}
				zero := round == 4 // a round that aggregated nothing
				dp, _ := dense.PlanScores(round, ds, zero)
				sp, _ := sparse.PlanScores(round, ss, zero)
				if len(dp) != len(sp) {
					t.Fatalf("K=%d f=%v round %d: %d vs %d participants", k, frac, round, len(dp), len(sp))
				}
				for j := range dp {
					if relabel(dp[j].Client) != sp[j].Client || dp[j].Ratio != sp[j].Ratio {
						t.Fatalf("K=%d f=%v round %d slot %d: dense %+v, sparse %+v", k, frac, round, j, dp[j], sp[j])
					}
				}
				if len(dense.LastSel) != len(sparse.LastSel) {
					t.Fatalf("K=%d f=%v round %d: recency sizes %d vs %d", k, frac, round, len(dense.LastSel), len(sparse.LastSel))
				}
				for i, r := range dense.LastSel {
					if sparse.LastSel[relabel(i)] != r {
						t.Fatalf("K=%d f=%v round %d: client %d last selected %d vs %d", k, frac, round, i, r, sparse.LastSel[relabel(i)])
					}
				}
			}
		}
	}
}

// TestDefaultReservationKeepsTopSlot pins the one rounding rule at the
// default ExploreFrac: every K ≥ 3 keeps at least one Algorithm-1
// top-score slot. At K=3 and K=4 a ceiling would reserve all K slots and
// silently turn AdaFL into round-robin.
func TestDefaultReservationKeepsTopSlot(t *testing.T) {
	for k := 3; k <= 50; k++ {
		cfg := DefaultConfig()
		cfg.K = k
		if top := k - cfg.reservedSlots(); top < 1 {
			t.Fatalf("K=%d: %d top-score slots", k, top)
		}
	}
	for _, k := range []int{3, 4} {
		cfg := DefaultConfig()
		cfg.K = k
		cfg.Tau = 0
		p := NewSyncPlanner(cfg)
		// Warm-up selects everyone in round WarmupRounds-1, so recency
		// ties everywhere and the reservation takes the lowest IDs. The
		// top score sits on the highest ID: only a score-ranked slot can
		// pick it.
		const n = 8
		round := cfg.Compression.WarmupRounds - 1
		scores := func() map[int]float64 {
			m := map[int]float64{}
			for i := 0; i < n; i++ {
				m[i] = 0.1 + 0.1*float64(i)
			}
			return m
		}
		p.PlanScores(round, scores(), false)
		plan, _ := p.PlanScores(round+1, scores(), false)
		if len(plan) != k || plan[0].Client != n-1 {
			t.Fatalf("K=%d: plan %+v, want %d participants led by top-score client %d", k, plan, k, n-1)
		}
	}
}
