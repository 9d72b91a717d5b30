package core

import (
	"math"
	"sort"

	"adafl/internal/compress"
	"adafl/internal/device"
	"adafl/internal/fl"
	"adafl/internal/obs"
	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// Config bundles the AdaFL hyperparameters.
type Config struct {
	// K is the maximum number of clients selected per synchronous round
	// (the paper uses k ≤ 5 of 10).
	K int
	// Tau is the utility threshold τ ∈ [0, 1].
	Tau float64
	// Utility configures the score f.
	Utility UtilityConfig
	// Compression configures the adaptive ratio controller.
	Compression CompressionController
	// ExploreFrac reserves a fraction of the K selection slots for the
	// least-recently-selected clients. This extends the warm-up phase's
	// equal-participation principle past warm-up: pure top-score selection
	// can lock onto a coalition of mutually-aligned clients and starve
	// non-IID shards. 0 disables the reservation (pure Algorithm 1). The
	// default 0.8 empirically dominates both pure ranking (starvation) and
	// pure round-robin (no utility signal); see the ablation bench.
	ExploreFrac float64
	// AsyncAlpha, AsyncAnchor and AsyncDecay configure the fully-
	// asynchronous server apply step (delta scale, anchor pull, and the
	// polynomial staleness exponent) — see AsyncApply.
	AsyncAlpha, AsyncAnchor, AsyncDecay float64
	// DGCMomentum and DGCClip configure the client-side DGC codecs
	// AttachDGC installs. In the delta-exchange engines the client's model
	// delta already carries the local optimizer's momentum, so the codec's
	// momentum correction defaults to 0 (pure error feedback); momentum
	// correction harmonises sparse updates only when raw per-step
	// gradients are exchanged.
	DGCMomentum, DGCClip float64
	// DGCMsgClip bounds each transmitted message's norm relative to the
	// current delta (see compress.DGC.MsgClipFactor); it rate-limits stale
	// residual dumps from intermittently selected clients.
	DGCMsgClip float64
}

// DefaultConfig returns the configuration behind the reproduction's
// headline numbers: k ≤ 5 of 10 clients, 5 warm-up rounds and 4x–210x
// ratios as in the paper, with τ = 0.3 and 0.8 of the K slots reserved
// for the least-recently-selected clients (DESIGN.md §Deviations).
func DefaultConfig() Config {
	return Config{
		K:           5,
		Tau:         0.3,
		Utility:     DefaultUtility(),
		Compression: DefaultController(),
		ExploreFrac: 0.8,
		AsyncAlpha:  0.6,
		AsyncAnchor: 0.2,
		AsyncDecay:  0.5,
		DGCMomentum: 0,
		DGCClip:     10,
		DGCMsgClip:  2,
	}
}

// ScaleRatiosForModel adjusts the compression bounds to the gradient-skew
// regime of the model in use. The paper's 4x–210x ladder presumes the
// heavy-tailed gradient spectra of deep CNNs, where the top fraction of a
// per-round delta carries most of its mass; for the small dense models the
// fast experiment presets use, the spectra are flat and the same ratios
// would discard most of the update. dim is the model's parameter count:
// below smallModelDim the MaxRatio is capped at maxForSmall.
func (c *Config) ScaleRatiosForModel(dim int) {
	const smallModelDim = 100000
	const maxForSmall = 10
	if dim < smallModelDim && c.Compression.MaxRatio > maxForSmall {
		c.Compression.MaxRatio = maxForSmall
	}
	if c.Compression.MinRatio > c.Compression.MaxRatio {
		c.Compression.MinRatio = c.Compression.MaxRatio
	}
}

// AttachDGC installs a fresh per-client DGC codec on every client of the
// federation (AdaFL's compression builds on DGC; each client needs its own
// accumulator state).
func (c Config) AttachDGC(fed *fl.Federation) {
	probe := compress.DGC{Momentum: c.DGCMomentum, ClipNorm: c.DGCClip, MsgClipFactor: c.DGCMsgClip}
	if err := probe.Validate(); err != nil {
		panic(err)
	}
	for _, cl := range fed.Clients {
		cl.Codec = &compress.DGC{
			Momentum:      c.DGCMomentum,
			ClipNorm:      c.DGCClip,
			MsgClipFactor: c.DGCMsgClip,
		}
	}
}

// SyncPlanner is AdaFL's adaptive node selection for synchronous rounds,
// shared by the in-process engine (Plan) and the socket server
// (PlanScores). Each round it gates and scales the candidates' utility
// scores, applies Algorithm 1 with the fairness reservation, and assigns
// rank-based compression ratios.
//
// During warm-up all clients participate at the warm-up ratio, letting the
// global model absorb every data distribution before specialising.
type SyncPlanner struct {
	Cfg Config
	// Perf, when non-nil, records utility-score and compression cycle
	// counts against the given device profile (the overhead experiment).
	Perf        *device.PerfMonitor
	PerfProfile device.Profile

	// RatioStats tracks the spread of assigned ratios for the tables.
	RatioStats RatioTracker

	// Metrics, when non-nil, receives the utility-score and assigned-ratio
	// histograms (adafl_utility_score, adafl_compression_ratio).
	Metrics *obs.Registry

	// Eligible, when non-nil, restricts selection to clients it reports
	// true for — the scenario engine's availability gate. Ineligible
	// clients are excluded everywhere: warm-up, top-score selection, the
	// fairness reservation and the empty-selection fallback. If no client
	// is eligible the plan is empty and the round runs with no updates.
	Eligible func(client int) bool
	// ScoreMult, when non-nil, scales each client's utility score before
	// Algorithm 1 ranks them — the scenario engine's battery-aware smart
	// sampling (low-battery clients are deprioritised).
	ScoreMult func(client int) float64

	// Negotiator, when non-nil, turns on per-round codec negotiation: the
	// utility-ranked ratios become the baseline a deterministic link-state
	// assignment refines, selected clients may be switched to the
	// DAdaQuant codec, and each client's last assigned ratio feeds back
	// into its utility score (Negotiator.ScoreMult).
	Negotiator *Negotiator
	// BandwidthMult returns the client's bandwidth multiplier for the
	// round (the scenario class×trace product); nil means 1 everywhere.
	// It must be a pure function of (client, round) for replay.
	BandwidthMult func(client, round int) float64
	// NegotiationSeed seeds the planner-owned DAdaQuant codecs'
	// stochastic rounding (one derived stream per client).
	NegotiationSeed uint64

	// LastSel maps a client ID to the round it last participated in, for
	// the ExploreFrac fairness reservation; a client absent from the map
	// has never participated. The socket server checkpoints it.
	LastSel map[int]int

	dadaCodecs map[int]*compress.DAdaQuant
}

// NewSyncPlanner returns a planner with the given configuration.
func NewSyncPlanner(cfg Config) *SyncPlanner {
	cfg.Compression.Validate()
	return &SyncPlanner{Cfg: cfg}
}

// eligible applies the optional availability gate.
func (p *SyncPlanner) eligible(i int) bool {
	return p.Eligible == nil || p.Eligible(i)
}

// warmup reports whether the round runs warm-up-style full participation:
// inside the configured warm-up, or while the global model has not moved
// yet (a zero global delta carries no direction to score against).
func (p *SyncPlanner) warmup(round int, zeroDelta bool) bool {
	return p.Cfg.Compression.InWarmup(round) || zeroDelta
}

// perf charges one event's cycles to the optional overhead monitor.
func (p *SyncPlanner) perf(event string, flops float64) {
	if p.Perf != nil {
		p.Perf.Record(event, p.PerfProfile.CyclesForFLOPs(flops))
	}
}

// reservedSlots is how many of the K selection slots the fairness
// reservation takes: ExploreFrac·K rounded to the nearest integer and
// clamped to [0, K]. At the default 0.8 every K ≥ 3 keeps at least one
// Algorithm-1 top-score slot.
func (c Config) reservedSlots() int {
	return min(max(int(math.Round(c.ExploreFrac*float64(c.K))), 0), c.K)
}

// Plan implements fl.RoundPlanner: it scores the engine's clients by
// equation 6 (each client's cached local delta against the previous
// global delta, at its current link bandwidths), plans the round through
// PlanScores, and attaches the planner-owned DAdaQuant codecs the
// negotiator assigns.
func (p *SyncPlanner) Plan(round int, e *fl.SyncEngine) []fl.Participation {
	zeroDelta := tensor.Norm2(e.LastGlobalDelta) == 0
	warm := p.warmup(round, zeroDelta)
	scores := make(map[int]float64, len(e.Fed.Clients))
	for i, c := range e.Fed.Clients {
		if !p.eligible(i) {
			continue
		}
		if warm {
			scores[i] = 0 // warm-up plans ignore scores
			continue
		}
		up, down := e.Fed.Net.Bandwidths(i, e.Now())
		local := c.LastDelta
		if local == nil {
			local = e.LastGlobalDelta // untried client: score as aligned
		}
		scores[i] = p.Cfg.Utility.Score(up, down, local, e.LastGlobalDelta)
		p.perf("utility-score", device.UtilityScoreFLOPs(len(local)))
	}
	out, asn := p.PlanScores(round, scores, zeroDelta)
	for i := range out {
		p.perf("dgc-encode", device.DGCEncodeFLOPs(len(e.Global)))
		a, ok := asn[out[i].Client]
		if !ok {
			continue
		}
		out[i].Ratio = a.Ratio
		if a.Codec == CodecDAdaQuant {
			out[i].Codec = p.dadaCodec(out[i].Client, round, a.Levels)
		}
	}
	return out
}

// PlanScores plans one round over utility scores keyed by client ID. The
// IDs are an opaque sparse set: on the socket server they are whatever
// clients are connected, not 0..n-1. zeroDelta reports that the previous
// global delta is zero, which plans the round like warm-up.
//
// The scores map is edited in place: clients Eligible rejects are deleted
// and the rest are scaled by ScoreMult and the negotiator's feedback
// multiplier, so on return it holds exactly the candidates the round
// ranked. The plan lists the participants in rank order with their
// utility-ranked ratios: Algorithm 1's top-score picks, then the fairness
// reservation's least-recently-selected picks — or, during warm-up and
// when both come up empty, every candidate in ascending ID order at the
// warm-up ratio. With a Negotiator the codec assignments that supersede
// those ratios come back too (nil otherwise).
func (p *SyncPlanner) PlanScores(round int, scores map[int]float64, zeroDelta bool) ([]fl.Participation, map[int]CodecAssignment) {
	for id := range scores {
		if !p.eligible(id) {
			delete(scores, id)
			continue
		}
		if p.ScoreMult != nil {
			scores[id] *= p.ScoreMult(id)
		}
		if p.Negotiator != nil {
			scores[id] *= p.Negotiator.ScoreMult(id)
		}
	}
	ids := make([]int, 0, len(scores))
	for id := range scores {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	var out []fl.Participation
	if !p.warmup(round, zeroDelta) {
		out = p.selectRanked(round, ids, scores)
	}
	// Warm-up, and the fallback when Algorithm 1 selects nobody (every
	// score below τ with no reservation): full participation at the
	// warm-up ratio. A zero-participant round would burn a round of the
	// budget without moving the model; this one also refreshes every
	// client's cached delta so the next round's scores are informed.
	if len(out) == 0 {
		out = make([]fl.Participation, 0, len(ids))
		for _, id := range ids {
			out = append(out, fl.Participation{Client: id, Ratio: p.Cfg.Compression.WarmupRatio})
		}
	}
	if p.LastSel == nil {
		p.LastSel = map[int]int{}
	}
	ratioHist := p.Metrics.Histogram("adafl_compression_ratio", obs.RatioBuckets)
	for _, pt := range out {
		p.LastSel[pt.Client] = round
		p.RatioStats.Observe(pt.Ratio)
		ratioHist.Observe(pt.Ratio)
	}
	return out, p.negotiate(round, out)
}

// selectRanked is Algorithm 1 plus the fairness reservation over the
// sorted candidate IDs: the top K−reserve scores meeting τ, then the
// reserved slots for the unchosen candidates idle the longest (ties go to
// the lowest ID), each at its rank's compression ratio.
func (p *SyncPlanner) selectRanked(round int, ids []int, scores map[int]float64) []fl.Participation {
	vec := make([]float64, len(ids))
	scoreHist := p.Metrics.Histogram("adafl_utility_score", obs.ScoreBuckets)
	for i, id := range ids {
		vec[i] = scores[id]
		scoreHist.Observe(vec[i])
	}
	last := func(i int) int {
		if r, ok := p.LastSel[ids[i]]; ok {
			return r
		}
		return -1
	}
	reserve := p.Cfg.reservedSlots()
	var order []int // indices into ids, in rank order
	if kTop := p.Cfg.K - reserve; kTop >= 1 {
		for _, sc := range SelectClients(vec, kTop, p.Cfg.Tau) {
			order = append(order, sc.Client)
		}
	}
	chosen := make([]bool, len(ids))
	for _, i := range order {
		chosen[i] = true
	}
	for slot := 0; slot < reserve; slot++ {
		best := -1
		for i := range ids {
			if !chosen[i] && (best == -1 || last(i) < last(best)) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		chosen[best] = true
		order = append(order, best)
	}
	out := make([]fl.Participation, len(order))
	for rank, i := range order {
		out[rank] = fl.Participation{Client: ids[i], Ratio: p.Cfg.Compression.RatioForRank(rank, len(order), round)}
	}
	return out
}

// negotiate refines the utility-ranked plan through the negotiator: the
// ranked ratio becomes the baseline that the round's bandwidth multiplier
// and byte history refine. A nil negotiator assigns nothing, so
// un-negotiated sessions replay bit-identically.
func (p *SyncPlanner) negotiate(round int, out []fl.Participation) map[int]CodecAssignment {
	if p.Negotiator == nil {
		return nil
	}
	plan := make(map[int]float64, len(out))
	for _, pt := range out {
		plan[pt.Client] = pt.Ratio
	}
	var bw func(int) float64
	if p.BandwidthMult != nil {
		bw = func(id int) float64 { return p.BandwidthMult(id, round) }
	}
	return p.Negotiator.Assign(round, plan, bw)
}

// dadaCodec returns the planner-owned DAdaQuant instance for the client,
// pinned to the assigned level count and round. Each client gets its own
// derived RNG stream so stochastic rounding replays per client no matter
// which rounds it is selected in.
func (p *SyncPlanner) dadaCodec(client, round, levels int) compress.Codec {
	if p.dadaCodecs == nil {
		p.dadaCodecs = make(map[int]*compress.DAdaQuant)
	}
	d := p.dadaCodecs[client]
	if d == nil {
		cfg := p.Negotiator.Config()
		rng := stats.NewRNG(p.NegotiationSeed + 0x9e3779b97f4a7c15*uint64(client+1))
		d = compress.NewDAdaQuant(cfg.MinLevels, cfg.MaxLevels, cfg.LevelDoubleEvery, rng)
		p.dadaCodecs[client] = d
	}
	d.SetRound(round)
	d.SetLevels(levels)
	return d
}

// AsyncGate is AdaFL's client-side utility gating for the asynchronous
// engine: after local training, the client scores its own delta against
// the last global delta; below-threshold updates are withheld (the client
// idles until the next global model) and transmitted updates are
// compressed according to the score.
type AsyncGate struct {
	Cfg Config
	// Perf mirrors SyncPlanner.Perf.
	Perf        *device.PerfMonitor
	PerfProfile device.Profile

	// Metrics mirrors SyncPlanner.Metrics.
	Metrics *obs.Registry

	RatioStats RatioTracker
	decisions  int
	skipped    int
}

// NewAsyncGate returns a gate with the given configuration.
func NewAsyncGate(cfg Config) *AsyncGate {
	cfg.Compression.Validate()
	return &AsyncGate{Cfg: cfg}
}

// SkipRate reports the fraction of training completions that were withheld.
func (g *AsyncGate) SkipRate() float64 {
	if g.decisions == 0 {
		return 0
	}
	return float64(g.skipped) / float64(g.decisions)
}

// Decide implements fl.AsyncGate.
func (g *AsyncGate) Decide(e *fl.AsyncEngine, client int, delta []float64) (bool, float64) {
	g.decisions++
	// Warm-up: every update flows, lightly compressed.
	if g.Cfg.Compression.InWarmup(e.Version) || tensor.Norm2(e.LastGlobalDelta) == 0 {
		ratio := g.Cfg.Compression.WarmupRatio
		g.RatioStats.Observe(ratio)
		if g.Perf != nil {
			g.Perf.Record("dgc-encode",
				g.PerfProfile.CyclesForFLOPs(device.DGCEncodeFLOPs(len(delta))))
		}
		return true, ratio
	}
	up, down := e.Fed.Net.Bandwidths(client, e.Now())
	score := g.Cfg.Utility.Score(up, down, delta, e.LastGlobalDelta)
	g.Metrics.Histogram("adafl_utility_score", obs.ScoreBuckets).Observe(score)
	if g.Perf != nil {
		g.Perf.Record("utility-score",
			g.PerfProfile.CyclesForFLOPs(device.UtilityScoreFLOPs(len(delta))))
	}
	if score < g.Cfg.Tau {
		g.skipped++
		return false, 0
	}
	ratio := g.Cfg.Compression.RatioForScore(score, e.Version)
	g.RatioStats.Observe(ratio)
	g.Metrics.Histogram("adafl_compression_ratio", obs.RatioBuckets).Observe(ratio)
	if g.Perf != nil {
		g.Perf.Record("dgc-encode",
			g.PerfProfile.CyclesForFLOPs(device.DGCEncodeFLOPs(len(delta))))
	}
	return true, ratio
}

// AsyncApply is AdaFL's fully-asynchronous server step: every received
// (gated, compressed) update is applied immediately — "the server upgrades
// its global model each time it receives a gradient update". The update
// combines the client's sparse delta (scaled by Alpha) with a mild anchor
// pull toward the model version the client trained from (scaled by
// Anchor); both coefficients decay polynomially with staleness. The anchor
// term damps the drift that pure delta application accumulates when many
// clients race, without the full model-mixing of FedAsync that washes out
// minority (non-IID) contributions.
type AsyncApply struct {
	Alpha  float64
	Anchor float64
	Decay  float64
}

// Name implements fl.AsyncStrategy.
func (AsyncApply) Name() string { return "adafl-async" }

// OnReceive implements fl.AsyncStrategy.
func (a AsyncApply) OnReceive(global, downloaded []float64, u fl.Update) bool {
	d := 1.0
	if a.Decay > 0 {
		d = math.Pow(1+float64(u.Staleness), -a.Decay)
	}
	step := a.Alpha * d
	u.Delta.AddTo(global, step)
	if a.Anchor > 0 && downloaded != nil {
		anchor := a.Anchor * d
		for i := range global {
			global[i] += anchor * (downloaded[i] - global[i])
		}
	}
	return true
}

// RatioTracker records the spread of compression ratios AdaFL assigned,
// feeding the "Gradient Size" and "Compress. Ratio" table columns.
type RatioTracker struct {
	Count    int
	MinRatio float64
	MaxRatio float64
	sum      float64
}

// Observe records one assigned ratio.
func (t *RatioTracker) Observe(r float64) {
	if t.Count == 0 || r < t.MinRatio {
		t.MinRatio = r
	}
	if t.Count == 0 || r > t.MaxRatio {
		t.MaxRatio = r
	}
	t.sum += r
	t.Count++
}

// Mean returns the average assigned ratio.
func (t *RatioTracker) Mean() float64 {
	if t.Count == 0 {
		return 0
	}
	return t.sum / float64(t.Count)
}
