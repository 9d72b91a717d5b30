package main

import (
	"bytes"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/fl"
	"adafl/internal/netsim"
	"adafl/internal/nn"
	"adafl/internal/stats"
	"adafl/internal/tensor"
)

func TestTailRule(t *testing.T) {
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = float64(60 - i) // 60, 59, ..., 1
	}
	v, pct := tail(xs)
	// 10 samples (51..60) lie above the 11th largest, 50.
	if v != 50 || math.Abs(pct-100*50.0/60) > 1e-12 {
		t.Fatalf("tail of 1..60 = %v at p%v, want 50 at p%.4f", v, pct, 100*50.0/60)
	}
	v, pct = tail([]float64{3, 1, 2})
	if v != 3 || pct != 100 {
		t.Fatalf("tail of 3 samples = %v at p%v, want the max at p100", v, pct)
	}
	eleven := []float64{5, 1, 9, 2, 8, 3, 7, 4, 6, 10, 11}
	if v, _ := tail(eleven); v != 1 {
		t.Fatalf("tail of 11 samples = %v, want the minimum (10 above it)", v)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestModuleAttribution(t *testing.T) {
	c := &cpuCharge{module: map[string]float64{}}
	c.charge([]string{"runtime.memmove", "adafl/internal/tensor.CopyVec", "adafl/internal/fl.(*SyncEngine).RunRound", "main.main"}, 1)
	c.charge([]string{"adafl/internal/rpc.(*Conn).Send", "adafl/internal/session.(*AsyncSession).serve"}, 2)
	c.charge([]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, 4)
	c.charge([]string{"runtime.mallocgc", "main.(*asyncInstance).client"}, 8)
	c.charge([]string{"adafl/internal/nn.(*Dense).Forward.func1", "adafl/internal/tensor.runRows"}, 16)
	want := map[string]float64{"tensor": 1, "rpc": 2, "runtime": 12, "nn": 16}
	for m, s := range want {
		if c.module[m] != s {
			t.Errorf("module %s charged %v s, want %v", m, c.module[m], s)
		}
	}
	if c.memmove != 1 || c.total != 31 {
		t.Errorf("memmove %v total %v, want 1 and 31", c.memmove, c.total)
	}
	if m := moduleOf("adafl/internal/checkpoint.atomicWrite"); m != "checkpoint" {
		t.Errorf("moduleOf = %q, want checkpoint", m)
	}
}

// TestProfileDecode charges a real CPU profile: time spent in the GEMM
// must land on the tensor module.
func TestProfileDecode(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	a, b := tensor.New(128, 128), tensor.New(128, 128)
	a.Fill(1)
	b.Fill(2)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		tensor.MatMul(a, b)
	}
	pprof.StopCPUProfile()
	c, err := attributeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The loop calls only the GEMM; whatever is not in it is the runtime
	// (and, under the race detector, its C code, which has no Go frames).
	if c.module["tensor"] <= 0 || math.Abs(c.module["tensor"]+c.module["runtime"]-c.total) > 1e-9 {
		t.Fatalf("charged %v of %v s, want it all on tensor and runtime", c.module, c.total)
	}
}

func TestPushCountSkipsDrains(t *testing.T) {
	c := pushCount{sent: 406, accepted: 400}
	att, failed, drained := c.tally()
	if att != 400 || failed != 0 || drained != 6 {
		t.Fatalf("tally = %d attempted, %d failed, %d drained; want 400, 0, 6", att, failed, drained)
	}
	c = pushCount{sent: 410, accepted: 400, stale: 3, quarantined: 2, errored: 1}
	att, failed, drained = c.tally()
	if att != 404 || failed != 6 || drained != 7 {
		t.Fatalf("tally = %d attempted, %d failed, %d drained; want 404, 6, 7", att, failed, drained)
	}
}

func TestUnexplainedFrac(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "round", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "fl.run_round", Start: 0, End: 8},
		{ID: 2, Parent: 1, Name: "core.plan", Start: 0, End: 1},
		{ID: 3, Parent: 1, Name: "fl.client_phase", Start: 1, End: 6},
		{ID: 4, Parent: 1, Name: "compress.encode", Start: 2, End: 3}, // inside the client phase
		{ID: 5, Parent: 1, Name: "fl.aggregate", Start: 7, End: 8},
		{ID: 6, Parent: 0, Name: "fl.evaluate", Start: 8, End: 9},
	}
	// round self: 10 − 9 = 1; run_round self: 8 − 7 = 1.
	if f := unexplainedFrac(spans, "round"); math.Abs(f-0.2) > 1e-12 {
		t.Fatalf("unexplained = %v, want 0.2", f)
	}
}

// TestWrappersTransparent runs the same federation bare and through the
// traced planner, aggregator and codec wrappers: the globals and the
// uplink bytes must be bit-identical.
func TestWrappersTransparent(t *testing.T) {
	run := func(tc *tracing) *fl.SyncEngine {
		ds := dataset.SynthMNIST(400, 16, 5)
		train, test := ds.Split(0.8, 6)
		parts := dataset.PartitionShards(train, 4, 2, 7)
		newModel := func() *nn.Model { return nn.NewImageMLP([]int{1, 16, 16}, []int{16}, 10, stats.NewRNG(8)) }
		fed := fl.NewFederation(parts, test, netsim.UniformNetwork(4, netsim.LTELink, 9), newModel,
			fl.TrainConfig{LocalSteps: 2, BatchSize: 8, LR: 0.1, Momentum: 0.9}, 10)
		cfg := core.DefaultConfig()
		cfg.K = 2
		cfg.ScaleRatiosForModel(newModel().NumParams())
		cfg.AttachDGC(fed)
		var planner fl.RoundPlanner = core.NewSyncPlanner(cfg)
		var agg fl.Aggregator = fl.FedAvg{}
		if tc != nil {
			scope := &roundScope{}
			for _, c := range fed.Clients {
				c.Codec = &tracedCodec{inner: c.Codec, tr: tc.tr, scope: scope}
			}
			planner = &tracedPlanner{inner: planner, tr: tc.tr, scope: scope}
			agg = &tracedAggregator{inner: agg, tr: tc.tr, scope: scope}
		}
		eng := fl.NewSyncEngine(fed, agg, planner, 11)
		eng.RunRounds(8)
		return eng
	}
	bare := run(nil)
	tc := newTracing("test")
	wrapped := run(tc)
	for i := range bare.Global {
		if math.Float64bits(bare.Global[i]) != math.Float64bits(wrapped.Global[i]) {
			t.Fatalf("global[%d] = %v wrapped, %v bare", i, wrapped.Global[i], bare.Global[i])
		}
	}
	if bare.TotalUplinkBytes() != wrapped.TotalUplinkBytes() {
		t.Fatalf("uplink %d wrapped, %d bare", wrapped.TotalUplinkBytes(), bare.TotalUplinkBytes())
	}
	if n := len(tc.tr.durations("core.plan")); n != 8 {
		t.Fatalf("recorded %d plan spans, want 8", n)
	}
	if len(tc.tr.durations("compress.encode")) == 0 || len(tc.tr.durations("fl.aggregate")) != 8 {
		t.Fatal("encode or aggregate spans missing")
	}
}

// TestSmoke runs every workload at its smallest size, timed and traced,
// and checks that each result carries every metric and passes its
// correctness checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all three workloads")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			p := params{seed: 3, seconds: 0.1, dir: dir}
			res, report, err := timed(w, p)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("timed: correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, report["problems"])
			}
			for _, m := range []string{"setup_s", "updates_per_s", "latency_ms.p50", "latency_ms.tail", "uplink_mb", "peak_rss_mb", "allocs_per_op"} {
				if v, ok := res.Metrics[m]; !ok || !(v.Value > 0) {
					t.Errorf("timed metric %s = %+v, want a positive value", m, v)
				}
			}
			res, report, err = traced(w, p, dir+"/spans.jsonl")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced: %v", report["problems"])
			}
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("traced metric %s missing", m.name)
				}
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run reported %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			if _, err := os.Stat(dir + "/spans.jsonl"); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}
