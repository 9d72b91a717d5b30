package core

import (
	"testing"

	"adafl/internal/fl"
)

func TestSyncPlannerRotatesAllClients(t *testing.T) {
	// With the fairness reservation, no client may be starved even under
	// hard non-IID selection pressure.
	fed := newFed(10, false, 30)
	cfg := fastConfig()
	cfg.AttachDGC(fed)
	planner := NewSyncPlanner(cfg)
	e := fl.NewSyncEngine(fed, fl.FedAvg{}, planner, 31)
	e.EvalEvery = 0
	e.RunRounds(30)
	for i, n := range e.ClientUpdates {
		// Warm-up alone gives everyone cfg.Compression.WarmupRounds; the
		// reservation must add more on top for everyone.
		if n <= cfg.Compression.WarmupRounds {
			t.Errorf("client %d starved: %d updates in 30 rounds", i, n)
		}
	}
}

func TestSyncPlannerNoExplorationCanStarve(t *testing.T) {
	// The converse: with ExploreFrac=0 the selection is free to starve
	// clients — documenting why the reservation exists. We only assert the
	// mechanism differs (minimum participation drops), not a specific
	// starvation pattern.
	run := func(explore float64) int {
		fed := newFed(10, false, 32)
		cfg := fastConfig()
		cfg.ExploreFrac = explore
		cfg.AttachDGC(fed)
		e := fl.NewSyncEngine(fed, fl.FedAvg{}, NewSyncPlanner(cfg), 33)
		e.EvalEvery = 0
		e.RunRounds(30)
		min := e.ClientUpdates[0]
		for _, n := range e.ClientUpdates {
			if n < min {
				min = n
			}
		}
		return min
	}
	withRes := run(0.4)
	without := run(0)
	if withRes < without {
		t.Fatalf("reservation lowered minimum participation: %d vs %d", withRes, without)
	}
}

// TestSyncPlannerEmptySelectionFallsBack pins the τ-starvation fallback:
// with ExploreFrac 0 and a threshold no score can reach, Algorithm 1
// selects nobody. The planner must fall back to warm-up-style full
// participation (everyone at the warm-up ratio) instead of returning an
// empty plan that wastes the round.
func TestSyncPlannerEmptySelectionFallsBack(t *testing.T) {
	n := 6
	fed := newFed(n, true, 40)
	cfg := fastConfig()
	cfg.Tau = 2 // unreachable: every post-warm-up score is below τ
	cfg.ExploreFrac = 0
	cfg.Compression.WarmupRounds = 2
	cfg.AttachDGC(fed)
	planner := NewSyncPlanner(cfg)
	e := fl.NewSyncEngine(fed, fl.FedAvg{}, planner, 41)
	e.EvalEvery = 0
	e.RunRounds(5)
	for _, row := range e.Hist.Rows[cfg.Compression.WarmupRounds:] {
		if row.Participants != n {
			t.Fatalf("round %d: %d participants, want fallback full participation (%d)",
				row.Round, row.Participants, n)
		}
	}
}

func TestAsyncGateWarmupAdmitsEverything(t *testing.T) {
	fed := newFed(4, true, 34)
	cfg := fastConfig()
	cfg.Tau = 0.99 // would reject everything post-warm-up
	cfg.Compression.WarmupRounds = 1000000
	cfg.AttachDGC(fed)
	gate := NewAsyncGate(cfg)
	e := fl.NewAsyncEngine(fed, AsyncApply{Alpha: 0.5}, gate)
	e.Run(10)
	if gate.SkipRate() != 0 {
		t.Fatalf("warm-up gate skipped %.0f%%", 100*gate.SkipRate())
	}
	if e.TotalUpdates() == 0 {
		t.Fatal("no updates during warm-up")
	}
}

func TestSyncPlannerRecordsSelectionRecency(t *testing.T) {
	fed := newFed(6, true, 35)
	cfg := fastConfig()
	cfg.AttachDGC(fed)
	planner := NewSyncPlanner(cfg)
	e := fl.NewSyncEngine(fed, fl.FedAvg{}, planner, 36)
	e.EvalEvery = 0
	e.RunRounds(cfg.Compression.WarmupRounds + 4)
	// LastSel must hold every client after warm-up.
	for i := range fed.Clients {
		if _, ok := planner.LastSel[i]; !ok {
			t.Fatalf("client %d never recorded as selected", i)
		}
	}
}
