package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"time"

	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/netsim"
	"adafl/internal/nn"
	"adafl/internal/obs"
	"adafl/internal/rpc"
	"adafl/internal/session"
	"adafl/internal/stats"
)

// wire-sync: the deployable sync server on loopback. rpc.Server runs
// K=2 rounds over two rpc.RunClient goroutines on the binary wire with
// DGC uplinks; the model is ImageMLP 784→512→10 (407k parameters), so
// every dense broadcast is a paper-sized 3.2 MB frame. A full snapshot
// is checkpointed after every round and the global is evaluated every 5.
//
// The server is a managed one (rpc.NewManagedServer) behind the
// benchmark's own listener, which does what session.Manager does for a
// sync session: negotiate the codec, read the hello, Deliver. Both
// clients are delivered before Server.Run starts. A server with its own
// listener starts round 1 as soon as the last hello is queued, and its
// welcome to that client can then go out after the first broadcast,
// which the client rejects as a protocol violation at its select.
const (
	wireClients     = 2
	wireSamples     = 1200
	wireHidden      = 512
	wireEvalEvery   = 5
	wireRoundsPerS  = 11 // calibrated: rounds per second of --seconds
	wireMinRounds   = 15
	wireLearnRate   = 0.1
	wireMomentum    = 0.9
	wireStraggler   = 60 * time.Second
	wireShardsPerCl = 2
	wireHelloWait   = 60 * time.Second // bounds a connected client's codec preamble and hello
)

func wireRounds(seconds float64) int {
	r := int(math.Round(seconds*wireRoundsPerS/wireEvalEvery)) * wireEvalEvery
	return max(r, wireMinRounds)
}

// imageMLP is the 407k-parameter model wire-sync and async-push share.
func imageMLP(seed uint64) func() *nn.Model {
	return func() *nn.Model {
		return nn.NewImageMLP([]int{1, 28, 28}, []int{wireHidden}, 10, stats.NewRNG(seed))
	}
}

type wireInstance struct {
	ln      net.Listener
	srv     *rpc.Server
	clients []rpc.ClientConfig
	rounds  int
	dir     string
	dim     int
	tc      *tracing

	// Written by the server's OnRound callback, read after Run returns.
	roundEnds []time.Time
	phases    []phaseSums
}

// phaseSums are the server's cumulative phase and checkpoint seconds,
// read at each round boundary in traced runs.
type phaseSums struct{ score, update, ckpt float64 }

func setupWire(p params, tc *tracing) (instance, error) {
	ds := dataset.SynthMNIST(wireSamples, 28, p.seed)
	train, test := ds.Split(0.8, p.seed+1)
	parts := dataset.PartitionShards(train, wireClients, wireShardsPerCl, p.seed+2)
	newModel := imageMLP(p.seed + 3)
	cfg := core.DefaultConfig()
	cfg.K = wireClients
	dim := newModel().NumParams()
	cfg.ScaleRatiosForModel(dim)
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	w := &wireInstance{rounds: wireRounds(p.seconds), dir: p.dir, dim: dim, tc: tc}
	srv, err := rpc.NewManagedServer(rpc.ServerConfig{
		NumClients:       wireClients,
		Rounds:           w.rounds,
		Cfg:              cfg,
		NewModel:         newModel,
		Test:             test,
		EvalEvery:        wireEvalEvery,
		Logf:             discardf,
		StragglerTimeout: wireStraggler,
		CheckpointDir:    p.dir,
		Wire:             rpc.WireBinary,
		Metrics:          tc.registry(),
		Events:           tc.eventLog(),
		OnRound:          w.onRound,
	})
	if err != nil {
		return nil, err
	}
	w.srv = srv
	if w.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	for i := 0; i < wireClients; i++ {
		w.clients = append(w.clients, rpc.ClientConfig{
			Addr: w.ln.Addr().String(), ID: i, Data: parts[i], NewModel: newModel,
			LocalSteps: localSteps, BatchSize: batchSize, LR: wireLearnRate, Momentum: wireMomentum,
			Utility: cfg.Utility, UpBps: netsim.LTELink.UpBps, DownBps: netsim.LTELink.DownBps,
			Codec:       "dgc",
			DGCMomentum: cfg.DGCMomentum, DGCClip: cfg.DGCClip, DGCMsgClip: cfg.DGCMsgClip,
			Seed: p.seed + 10 + uint64(i), Logf: discardf, Wire: rpc.WireBinary,
			Metrics: tc.registry(),
		})
	}
	return w, nil
}

func (w *wireInstance) discard() { w.abort() }

// abort closes the listener and kills the server, so that an admit or a
// Run waiting on a client that has failed returns.
func (w *wireInstance) abort() {
	w.ln.Close()
	w.srv.Kill()
}

// admit accepts one connection per client, negotiates its codec, reads
// its hello and delivers it to the server, which welcomes it.
func (w *wireInstance) admit() error {
	for range w.clients {
		raw, err := w.ln.Accept()
		if err != nil {
			return fmt.Errorf("accept: %w", err)
		}
		raw.SetReadDeadline(time.Now().Add(wireHelloWait))
		conn, err := rpc.Accept(raw, rpc.WireBinary)
		if err != nil {
			raw.Close()
			return fmt.Errorf("negotiate: %w", err)
		}
		hello, err := conn.Recv()
		if err != nil || hello.Type != rpc.MsgHello {
			conn.Close()
			return fmt.Errorf("hello: got %v, %v", hello, err)
		}
		if err := w.srv.Deliver(conn, hello); err != nil {
			return err
		}
	}
	return w.ln.Close()
}

func (w *wireInstance) onRound(rpc.RoundRecord) {
	w.roundEnds = append(w.roundEnds, time.Now())
	if reg := w.tc.registry(); reg != nil {
		w.phases = append(w.phases, phaseSums{
			score:  reg.Histogram(`adafl_phase_seconds{phase="score"}`, obs.LatencyBuckets).Sum(),
			update: reg.Histogram(`adafl_phase_seconds{phase="update"}`, obs.LatencyBuckets).Sum(),
			ckpt:   reg.Histogram("adafl_checkpoint_seconds", obs.LatencyBuckets).Sum(),
		})
	}
}

func (w *wireInstance) run() (*episode, error) {
	ep := &episode{opName: "round", finalAcc: math.NaN()}
	var wg sync.WaitGroup
	var once sync.Once
	clientErrs := make([]error, len(w.clients))
	start := time.Now()
	for i, cfg := range w.clients {
		wg.Add(1)
		go func(i int, cfg rpc.ClientConfig) {
			defer wg.Done()
			if _, clientErrs[i] = rpc.RunClient(cfg); clientErrs[i] != nil {
				once.Do(w.abort)
			}
		}(i, cfg)
	}
	var res *rpc.ServerResult
	err := w.admit()
	if err == nil {
		res, err = w.srv.Run()
	} else {
		once.Do(w.abort)
	}
	end := time.Now()
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("server: %w (client errors: %v)", err, errors.Join(clientErrs...))
	}
	ep.wall = end.Sub(start).Seconds()
	prev := start
	for _, t := range w.roundEnds {
		ep.latencies = append(ep.latencies, t.Sub(prev).Seconds())
		prev = t
	}

	for _, r := range res.Rounds {
		ep.attempted += r.Selected
		ep.failed += r.Evicted
		ep.updates += r.Received
	}
	ep.ops = len(res.Rounds)
	ep.samples = ep.updates * localSteps * batchSize
	ep.uplinkBytes = res.BytesReceived
	ep.finalAcc = res.FinalAcc
	for i, err := range clientErrs {
		ep.check(err == nil, "client %d: %v", i, err)
	}
	ep.check(len(res.Rounds) == w.rounds && !res.EndedEarly, "completed %d of %d rounds", len(res.Rounds), w.rounds)
	ep.check(res.Evictions == 0, "%d evictions", res.Evictions)
	ep.check(ep.finalAcc > 2*chanceAcc, "final_acc %.4f is not above chance (%.2f)", ep.finalAcc, chanceAcc)
	if rep, err := session.Doctor(w.dir, "", nil); err != nil {
		ep.check(false, "doctor: %v", err)
	} else {
		ep.check(rep.Healthy(), "doctor: %v", rep.Problems)
	}

	if w.tc != nil {
		if err := w.traceLayers(ep, start); err != nil {
			return nil, err
		}
	}
	return ep, nil
}

// traceLayers turns the server's instruments into per-layer values, and
// lays each round's phase and checkpoint seconds out as child spans of
// the round so that the unexplained remainder is fold, apply and eval.
func (w *wireInstance) traceLayers(ep *episode, start time.Time) error {
	tr, reg := w.tc.tr, w.tc.reg
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	prev, last := start, phaseSums{}
	for i, end := range w.roundEnds {
		round := tr.add("round", -1, prev, end)
		if i < len(w.phases) {
			d := w.phases[i]
			score, update := sec(d.score-last.score), sec(d.update-last.update)
			tr.add("rpc.phase_score", round, prev, prev.Add(score))
			tr.add("rpc.phase_update", round, prev.Add(score), prev.Add(score+update))
			tr.add("checkpoint.write", round, end.Add(-sec(d.ckpt-last.ckpt)), end)
			last = d
		}
		prev = end
	}
	secs, sizes, err := w.tc.checkpointEvents()
	if err != nil {
		return err
	}
	ep.layers = map[string]float64{
		"fl.client_train_s":       reg.Histogram("adafl_client_train_seconds", obs.LatencyBuckets).Sum(),
		"rpc.phase_score_s":       reg.Histogram(`adafl_phase_seconds{phase="score"}`, obs.LatencyBuckets).Sum(),
		"rpc.phase_update_s":      reg.Histogram(`adafl_phase_seconds{phase="update"}`, obs.LatencyBuckets).Sum(),
		"rpc.bytes_up_mb":         float64(reg.Counter(`adafl_bytes_total{dir="up"}`).Value()) / 1e6,
		"rpc.bytes_down_mb":       float64(reg.Counter(`adafl_bytes_total{dir="down"}`).Value()) / 1e6,
		"checkpoint.write_ms":     median0(secs) * 1e3,
		"checkpoint.writes":       float64(len(secs)),
		"checkpoint.written_frac": writtenFrac(sizes, w.dim),
		"bench.unexplained_frac":  unexplainedFrac(tr.spans, "round"),
	}
	return nil
}

// writtenFrac is the mean checkpoint write size over the dense model's
// size (8 bytes per parameter).
func writtenFrac(sizes []float64, dim int) float64 {
	if len(sizes) == 0 || dim == 0 {
		return 0
	}
	return sum(sizes) / float64(len(sizes)) / float64(8*dim)
}

func discardf(string, ...interface{}) {}
