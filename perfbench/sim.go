package main

import (
	"math"
	"time"

	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/fl"
	"adafl/internal/netsim"
	"adafl/internal/nn"
	"adafl/internal/stats"
)

// sim-cnn: the paper's own setup, in process. Ten clients hold 2-shard
// non-IID slices of SynthMNIST 28×28 and train the paper CNN (431k
// parameters) over LTE netsim links; core.SyncPlanner selects K=5 after
// 5 warm-up rounds and each client compresses with its own DGC codec.
const (
	simClients     = 10
	simSamples     = 2400 // 80% train (192 per client), 20% test
	simEvalEvery   = 5
	simRoundsPerS  = 2.5 // calibrated: rounds per second of --seconds
	simMinRounds   = 30
	simLearnRate   = 0.05
	simMomentum    = 0.9
	simTrainFrac   = 0.8
	simShardsPerCl = 2
)

// simRounds sizes the run: a whole number of evaluation periods, so the
// final round is always evaluated.
func simRounds(seconds float64) int {
	r := int(math.Round(seconds*simRoundsPerS/simEvalEvery)) * simEvalEvery
	return max(r, simMinRounds)
}

type simInstance struct {
	eng    *fl.SyncEngine
	rounds int
	tc     *tracing
	scope  *roundScope
}

func setupSim(p params, tc *tracing) (instance, error) {
	ds := dataset.SynthMNIST(simSamples, 28, p.seed)
	train, test := ds.Split(simTrainFrac, p.seed+1)
	parts := dataset.PartitionShards(train, simClients, simShardsPerCl, p.seed+2)
	newModel := func() *nn.Model { return nn.NewPaperCNN(stats.NewRNG(p.seed + 3)) }
	net := netsim.UniformNetwork(simClients, netsim.LTELink, p.seed+4)
	tcfg := fl.TrainConfig{LocalSteps: localSteps, BatchSize: batchSize, LR: simLearnRate, Momentum: simMomentum}
	fed := fl.NewFederation(parts, test, net, newModel, tcfg, p.seed+5)

	cfg := core.DefaultConfig()
	cfg.ScaleRatiosForModel(fed.Clients[0].Model.NumParams())
	cfg.AttachDGC(fed)
	var planner fl.RoundPlanner = core.NewSyncPlanner(cfg)
	var agg fl.Aggregator = fl.FedAvg{}
	scope := &roundScope{}
	if tc != nil {
		for _, c := range fed.Clients {
			c.Codec = &tracedCodec{inner: c.Codec, tr: tc.tr, scope: scope}
		}
		planner = &tracedPlanner{inner: planner, tr: tc.tr, scope: scope}
		agg = &tracedAggregator{inner: agg, tr: tc.tr, scope: scope}
	}
	eng := fl.NewSyncEngine(fed, agg, planner, p.seed+7)
	// The benchmark evaluates every simEvalEvery rounds itself, so the
	// evaluation is a span of its own in traced runs.
	eng.EvalEvery = 0
	eng.Metrics = tc.registry()
	return &simInstance{eng: eng, rounds: simRounds(p.seconds), tc: tc, scope: scope}, nil
}

func (s *simInstance) discard() {}

func (s *simInstance) run() (*episode, error) {
	tr := s.tc.tracer()
	ep := &episode{opName: "round", finalAcc: math.NaN()}
	start := time.Now()
	for r := 1; r <= s.rounds; r++ {
		t0 := time.Now()
		round := tr.open("round", -1)
		rr := tr.open("fl.run_round", round)
		s.scope.parent.Store(int64(rr))
		s.scope.planEnd.Store(0)
		s.eng.RunRound()
		tr.close(rr)
		if r%simEvalEvery == 0 {
			e0 := time.Now()
			ep.finalAcc, _ = s.eng.Fed.Evaluate(s.eng.Global)
			tr.add("fl.evaluate", round, e0, time.Now())
		}
		tr.close(round)
		ep.latencies = append(ep.latencies, time.Since(t0).Seconds())
	}
	ep.wall = time.Since(start).Seconds()

	for _, row := range s.eng.Hist.Rows {
		ep.attempted += row.Participants
		ep.failed += row.Participants - row.Received
	}
	ep.updates = s.eng.TotalUpdates()
	ep.ops = s.rounds
	ep.samples = ep.updates * localSteps * batchSize
	ep.uplinkBytes = s.eng.TotalUplinkBytes()
	ep.check(ep.finalAcc > 2*chanceAcc, "final_acc %.4f is not above chance (%.2f)", ep.finalAcc, chanceAcc)
	ep.check(allFinite(s.eng.Global), "final global has non-finite parameters")
	ep.check(len(s.eng.Hist.Rows) == s.rounds, "ran %d rounds, want %d", len(s.eng.Hist.Rows), s.rounds)

	if s.tc != nil {
		tr := s.tc.tr
		enc := tr.durations("compress.encode")
		ep.layers = map[string]float64{
			"compress.encode_ms":     median0(enc) * 1e3,
			"compress.encode_busy_s": sum(enc),
			"compress.encode_calls":  float64(len(enc)),
			"core.plan_ms":           median0(tr.durations("core.plan")) * 1e3,
			"fl.round_ms":            median0(tr.durations("fl.run_round")) * 1e3,
			"fl.client_phase_ms":     median0(tr.durations("fl.client_phase")) * 1e3,
			"fl.aggregate_ms":        median0(tr.durations("fl.aggregate")) * 1e3,
			"fl.eval_ms":             median0(tr.durations("fl.evaluate")) * 1e3,
			"bench.unexplained_frac": unexplainedFrac(tr.spans, "round"),
		}
	}
	return ep, nil
}
