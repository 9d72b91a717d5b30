// Package adafl's root benchmark harness regenerates every table and
// figure of the paper (see DESIGN.md's per-experiment index) plus the
// ablation studies and component microbenchmarks.
//
//	go test -bench=. -benchmem                   # tiny scale (seconds)
//	ADAFL_BENCH_SCALE=small go test -bench=. -benchmem -timeout 60m
//	ADAFL_BENCH_SCALE=full  go test -bench=Table1 -timeout 24h
//
// Experiment benches run one full experiment per iteration (b.N is
// typically 1) and report domain metrics — final accuracy, uplink bytes,
// cost reduction — through b.ReportMetric. The rendered tables/figures of
// the most recent iteration are printed via b.Log at -v.
package adafl

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"adafl/internal/compress"
	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/device"
	"adafl/internal/experiments"
	"adafl/internal/fl"
	"adafl/internal/nn"
	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// benchPreset resolves the experiment scale from ADAFL_BENCH_SCALE
// (tiny|small|full; default tiny so the default bench run finishes in
// minutes).
func benchPreset(b *testing.B) experiments.Preset {
	b.Helper()
	name := os.Getenv("ADAFL_BENCH_SCALE")
	if name == "" {
		name = "tiny"
	}
	scale, err := experiments.ParseScale(name)
	if err != nil {
		b.Fatal(err)
	}
	return experiments.PresetFor(scale)
}

// BenchmarkFig1 regenerates Figure 1 (a)–(l): the empirical resilience
// study under dropout, data loss and staleness.
func BenchmarkFig1(b *testing.B) {
	p := benchPreset(b)
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		res := experiments.RunFig1(p, &sb)
		b.ReportMetric(res.Insight1Gap, "insight1-dropout20-gap")
		b.ReportMetric(res.StaleGap, "insight2-stale-gap")
		b.ReportMetric(res.DropGap, "insight2-drop-gap")
		if i == b.N-1 {
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkFig3 regenerates Figure 3 (a)–(d): AdaFL vs baselines,
// synchronous and asynchronous, IID and non-IID.
func BenchmarkFig3(b *testing.B) {
	p := benchPreset(b)
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		res := experiments.RunFig3(p, &sb)
		b.ReportMetric(res.FinalAcc[1]["AdaFL"], "sync-noniid-adafl-acc")
		b.ReportMetric(res.FinalAcc[1]["FedAvg"], "sync-noniid-fedavg-acc")
		b.ReportMetric(res.FinalAcc[3]["AdaFL"], "async-noniid-adafl-acc")
		if i == b.N-1 {
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkTable1 regenerates Table I: the synchronous comparison.
func BenchmarkTable1(b *testing.B) {
	p := benchPreset(b)
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		res := experiments.RunTable1(p, &sb)
		ada := res.Row("AdaFL")
		base := res.Row("FedAvg")
		b.ReportMetric(-ada.CostReductionPct, "adafl-cost-reduction-%")
		b.ReportMetric(float64(ada.UpdateFreq), "adafl-update-freq")
		b.ReportMetric(ada.RatioMax, "adafl-max-ratio")
		b.ReportMetric(100*ada.Acc["mnist-noniid"], "adafl-mnist-noniid-%")
		b.ReportMetric(100*base.Acc["mnist-noniid"], "fedavg-mnist-noniid-%")
		if i == b.N-1 {
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkTable2 regenerates Table II: the asynchronous comparison.
func BenchmarkTable2(b *testing.B) {
	p := benchPreset(b)
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		res := experiments.RunTable2(p, &sb)
		ada := res.Row("AdaFL")
		base := res.Row("FedAsync")
		b.ReportMetric(-ada.CostReductionPct, "adafl-cost-reduction-%")
		b.ReportMetric(float64(ada.UpdateFreq), "adafl-update-freq")
		b.ReportMetric(100*ada.Acc["mnist-noniid"], "adafl-mnist-noniid-%")
		b.ReportMetric(100*base.Acc["mnist-noniid"], "fedasync-mnist-noniid-%")
		if i == b.N-1 {
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkOverhead regenerates the §V overhead study (Q3): relative CPU
// cycle expansion of utility scoring and compression on an RPi profile.
func BenchmarkOverhead(b *testing.B) {
	p := benchPreset(b)
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		res := experiments.RunOverhead(p, &sb)
		b.ReportMetric(res.UtilityExpansionPct, "utility-expansion-%")
		b.ReportMetric(res.CompressExpansionPct, "compress-expansion-%")
		if i == b.N-1 {
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkScale regenerates the §V scalability sweep (20–100 clients).
func BenchmarkScale(b *testing.B) {
	p := benchPreset(b)
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		res := experiments.RunScale(p, &sb)
		last := len(res.ClientCounts) - 1
		b.ReportMetric(100*res.AdaAcc[last], fmt.Sprintf("adafl-acc-%dclients-%%", res.ClientCounts[last]))
		b.ReportMetric(1-float64(res.AdaBytes[last])/float64(res.BaseBytes[last]), "byte-saving-frac")
		if i == b.N-1 {
			b.Log("\n" + sb.String())
		}
	}
}

// ablationBench runs one named ablation variant against the reference.
func ablationBench(b *testing.B, variant string) {
	p := benchPreset(b)
	variants := experiments.AblationVariants()
	var chosen []experiments.AblationVariant
	for _, v := range variants {
		if v.Name == "adafl (reference)" || v.Name == variant {
			chosen = append(chosen, v)
		}
	}
	if len(chosen) != 2 {
		b.Fatalf("unknown ablation variant %q", variant)
	}
	for i := 0; i < b.N; i++ {
		for _, v := range chosen {
			v := v
			_, stats := runAblationVariant(p, v)
			tag := "ref"
			if v.Name == variant {
				tag = "variant"
			}
			b.ReportMetric(100*stats.FinalAcc, tag+"-acc-%")
		}
	}
}

// runAblationVariant executes one variant (sync, non-IID MNIST).
func runAblationVariant(p experiments.Preset, v experiments.AblationVariant) (experiments.Curve, experiments.RunStats) {
	return experiments.RunVariant(p, v)
}

// BenchmarkAblationSimilarityMetric ablates cosine vs L2 utility.
func BenchmarkAblationSimilarityMetric(b *testing.B) { ablationBench(b, "similarity=L2") }

// BenchmarkAblationWarmup ablates removing the warm-up phase.
func BenchmarkAblationWarmup(b *testing.B) { ablationBench(b, "warmup=0") }

// BenchmarkAblationFixedCompression ablates adaptive vs fixed ratio.
func BenchmarkAblationFixedCompression(b *testing.B) { ablationBench(b, "fixed-ratio") }

// BenchmarkAblationBandwidthTerm ablates the bandwidth term of the score.
func BenchmarkAblationBandwidthTerm(b *testing.B) { ablationBench(b, "no-bandwidth-term") }

// BenchmarkAblationExploration ablates the fairness reservation.
func BenchmarkAblationExploration(b *testing.B) { ablationBench(b, "no-exploration") }

// BenchmarkCodecs regenerates the codec comparison (model-level
// related-work baselines: top-k, random-k, DGC, QSGD, TernGrad).
func BenchmarkCodecs(b *testing.B) {
	p := benchPreset(b)
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		res := experiments.RunCodecs(p, &sb)
		b.ReportMetric(100*res.Acc["dgc@8x"], "dgc-acc-%")
		b.ReportMetric(100*res.Acc["topk@8x"], "topk-acc-%")
		b.ReportMetric(100*res.Acc["randomk@8x"], "randomk-acc-%")
		if i == b.N-1 {
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkDynamic regenerates the dynamic-network study (the paper's §I
// motivation: static compression vs adaptive under varying bandwidth).
func BenchmarkDynamic(b *testing.B) {
	p := benchPreset(b)
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		res := experiments.RunDynamic(p, &sb)
		b.ReportMetric(100*res.Acc["adafl"], "adafl-acc-%")
		b.ReportMetric(float64(res.Bytes["adafl"])/float64(res.Bytes["fedavg-dense"]), "byte-frac-vs-dense")
		if i == b.N-1 {
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkProtocols regenerates the protocol comparison (sync FedAvg vs
// FedAT tiers vs FedAsync vs async AdaFL at an equal time budget).
func BenchmarkProtocols(b *testing.B) {
	p := benchPreset(b)
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		res := experiments.RunProtocols(p, &sb)
		b.ReportMetric(100*res.AccAtHorizon["AdaFL"], "adafl-acc-%")
		b.ReportMetric(100*res.AccAtHorizon["FedAT"], "fedat-acc-%")
		if i == b.N-1 {
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkGradSyncMomentumCorrection ablates DGC's momentum correction in
// its native setting — per-step gradient exchange (distributed synchronous
// SGD) — where it is mathematically valid, unlike delta exchange (see
// DESIGN.md's deviations).
func BenchmarkGradSyncMomentumCorrection(b *testing.B) {
	p := benchPreset(b)
	steps := p.Rounds * 3
	for i := 0; i < b.N; i++ {
		run := func(momentum float64) float64 {
			fed := p.Federation(experiments.MNISTTask, true, p.Seeds[0])
			fl.AttachGradDGC(fed, momentum, 10)
			e := fl.NewGradSyncEngine(fed, 0.1, 50)
			e.EvalEvery = steps / 3
			e.RunSteps(steps)
			return e.Hist.FinalAcc()
		}
		b.ReportMetric(100*run(0.9), "corrected-acc-%")
		b.ReportMetric(100*run(0), "plain-acc-%")
	}
}

// BenchmarkDownlinkCompression quantifies the framework extension that
// compresses server→client broadcasts as replica deltas: downlink bytes
// and accuracy relative to dense broadcast.
func BenchmarkDownlinkCompression(b *testing.B) {
	p := benchPreset(b)
	for i := 0; i < b.N; i++ {
		seed := p.Seeds[0]
		dense := p.Federation(experiments.MNISTTask, true, seed)
		eDense := fl.NewSyncEngine(dense, fl.FedAvg{}, fl.NewFixedRatePlanner(1, 1, seed+1), seed+2)
		eDense.EvalEvery = p.EvalEvery
		eDense.RunRounds(p.Rounds)

		comp := p.Federation(experiments.MNISTTask, true, seed)
		eComp := fl.NewSyncEngine(comp, fl.FedAvg{}, fl.NewFixedRatePlanner(1, 1, seed+1), seed+2)
		eComp.Downlink = fl.NewDownlinkCompressor(8, 10)
		eComp.EvalEvery = p.EvalEvery
		eComp.RunRounds(p.Rounds)

		denseDown := eDense.Hist.Rows[len(eDense.Hist.Rows)-1].DownlinkBytes
		compDown := eComp.Hist.Rows[len(eComp.Hist.Rows)-1].DownlinkBytes
		b.ReportMetric(float64(compDown)/float64(denseDown), "downlink-byte-frac")
		b.ReportMetric(100*eDense.Hist.FinalAcc(), "dense-acc-%")
		b.ReportMetric(100*eComp.Hist.FinalAcc(), "compressed-acc-%")
	}
}

// ---------------------------------------------------------------------
// Component microbenchmarks at the paper's gradient dimension.

const paperDim = 431080

func randomVec(n int, seed uint64) []float64 {
	r := stats.NewRNG(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Norm()
	}
	return v
}

// BenchmarkUtilityScore431k measures one cosine utility score at the
// paper CNN's dimension — the per-round client-side cost of AdaFL's
// selection signal.
func BenchmarkUtilityScore431k(b *testing.B) {
	u := core.DefaultUtility()
	g := randomVec(paperDim, 1)
	ref := randomVec(paperDim, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Score(2.5e6, 5e6, g, ref)
	}
}

// benchRatios are the compression ratios the codec benchmarks sweep: the
// shallow end of AdaFL's range (4×, k = n/8), a middle point (20×) and
// the paper's 210×. A sampled threshold has the least to gain at 4×.
var benchRatios = []float64{4, 20, 210}

// BenchmarkDGCEncode431k measures one DGC encode at each bench ratio —
// the per-upload cost of AdaFL's compressor.
func BenchmarkDGCEncode431k(b *testing.B) {
	g := randomVec(paperDim, 3)
	for _, ratio := range benchRatios {
		b.Run(fmt.Sprintf("ratio=%g", ratio), func(b *testing.B) {
			d := compress.NewDGC(0, 10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Encode(g, ratio)
			}
		})
	}
}

// BenchmarkTopKSelect431k measures raw top-k selection at each bench
// ratio.
func BenchmarkTopKSelect431k(b *testing.B) {
	g := randomVec(paperDim, 4)
	for _, ratio := range benchRatios {
		b.Run(fmt.Sprintf("ratio=%g", ratio), func(b *testing.B) {
			k := compress.KForRatio(paperDim, ratio)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				compress.SelectTopK(g, k)
			}
		})
	}
}

// BenchmarkPaperCNNForward measures one forward pass of the paper's CNN
// on a single 28×28 sample — the unit of simulated client compute.
func BenchmarkPaperCNNForward(b *testing.B) {
	m := nn.NewPaperCNN(stats.NewRNG(5))
	x := tensor.New(1, 1, 28, 28)
	x.RandNorm(stats.NewRNG(6), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, false)
	}
}

// BenchmarkPaperCNNTrainBatch measures one forward+backward on a batch of
// 8 samples.
func BenchmarkPaperCNNTrainBatch(b *testing.B) {
	m := nn.NewPaperCNN(stats.NewRNG(7))
	x := tensor.New(8, 1, 28, 28)
	x.RandNorm(stats.NewRNG(8), 1)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = i % 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrads()
		m.TrainBatch(x, labels)
	}
}

// BenchmarkTrainRound measures one full client local round on the paper
// CNN with synthetic MNIST: LocalSteps mini-batch SGD steps, delta
// extraction, and a DGC encode at 210× — the per-client unit of work every
// experiment repeats thousands of times. -benchmem tracks the hot path's
// allocation count, which the tensor scratch pool and per-layer buffer
// caches are meant to hold near zero.
func BenchmarkTrainRound(b *testing.B) {
	ds := dataset.SynthMNIST(256, 28, 1)
	model := nn.NewPaperCNN(stats.NewRNG(2))
	cfg := fl.TrainConfig{LocalSteps: 2, BatchSize: 8, LR: 0.05, Momentum: 0.9}
	c := fl.NewClient(0, ds, model, cfg, device.Profile{}, stats.NewRNG(3))
	c.Codec = compress.NewDGC(0, 10)
	global := model.ParamVector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta, _ := c.TrainRound(global, nil)
		c.EncodeDelta(delta, 210)
	}
}

// BenchmarkSyncRound measures one full synchronous AdaFL round on the
// bench preset's surrogate federation.
func BenchmarkSyncRound(b *testing.B) {
	p := benchPreset(b)
	fed := p.Federation(experiments.MNISTTask, false, 1)
	cfg := p.AdaFLConfig(experiments.MNISTTask, 210)
	cfg.AttachDGC(fed)
	e := fl.NewSyncEngine(fed, fl.FedAvg{}, core.NewSyncPlanner(cfg), 2)
	e.EvalEvery = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
}
