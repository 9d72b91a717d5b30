package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"adafl/internal/checkpoint"
	"adafl/internal/compress"
	"adafl/internal/rpc"
	"adafl/internal/session"
	"adafl/internal/shard"
)

// async-push: the async control plane with synthetic clients and no
// training, so rpc, session, shard and checkpoint carry the whole load.
// A session.Manager hosts one FedBuff AsyncSession (K=4) over the
// 407k-parameter model, writing a delta-checkpoint epoch per version.
// Two binary-wire connections each loop pull → synthetic
// rpc.FleetUpdate push (1000 nonzeros) → pull, as flfleet -async-addr
// does: a closed loop of two callers that each wait for the model.
const (
	asyncSession      = "bench"
	asyncClients      = 2
	asyncK            = 4
	asyncNNZ          = 1000
	asyncVersionsPerS = 30 // calibrated: model versions per second of --seconds
	asyncMinVersions  = 20
	asyncDialTimeout  = 10 * time.Second
)

func asyncVersions(seconds float64) int {
	return max(int(math.Round(seconds*asyncVersionsPerS)), asyncMinVersions)
}

type asyncInstance struct {
	mgr      *session.Manager
	sess     *session.AsyncSession
	versions int
	seed     uint64
	dir      string
	dim      int
	tc       *tracing
}

func setupAsync(p params, tc *tracing) (instance, error) {
	newModel := imageMLP(p.seed + 3)
	mgr, err := session.NewManager(session.Config{Addr: "127.0.0.1:0", Wire: rpc.WireBinary, Logf: discardf})
	if err != nil {
		return nil, err
	}
	a := &asyncInstance{mgr: mgr, versions: asyncVersions(p.seconds), seed: p.seed, dir: p.dir, tc: tc}
	sess, err := session.NewAsync(session.AsyncConfig{
		NewModel:      newModel,
		K:             asyncK,
		Versions:      a.versions,
		CheckpointDir: p.dir,
		Metrics:       tc.registry(),
		Events:        tc.eventLog(),
		Logf:          discardf,
	})
	if err != nil {
		mgr.Close()
		return nil, err
	}
	a.sess = sess
	if err := mgr.Register(asyncSession, sess); err != nil {
		a.discard()
		return nil, err
	}
	a.dim = newModel().NumParams()
	return a, nil
}

// discard tears down a built but never-run session: Kill, then Run
// returns at once and stops the session's fold workers.
func (a *asyncInstance) discard() {
	a.sess.Kill()
	a.sess.Run()
	a.mgr.Close()
}

// clientStats is one synthetic client's view of the episode.
type clientStats struct {
	pulls   []float64 // seconds from sending a pull to holding the model
	pushes  int
	pushB   int64 // wire bytes of one push frame
	errored int
	sent    int64
	recvd   int64
	err     error
}

func (a *asyncInstance) run() (*episode, error) {
	serveErr := make(chan error, 1)
	go func() { serveErr <- a.mgr.Serve() }()

	var res *session.AsyncResult
	var runErr error
	runDone := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(runDone)
		res, runErr = a.sess.Run()
	}()
	stats := make([]clientStats, asyncClients)
	var wg sync.WaitGroup
	for i := range stats {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			a.client(id, &stats[id])
		}(i)
	}
	<-runDone
	end := time.Now()
	wg.Wait()
	a.mgr.Close()
	if err := <-serveErr; err != nil {
		return nil, fmt.Errorf("manager: %w", err)
	}
	if runErr != nil {
		return nil, fmt.Errorf("async session: %w", runErr)
	}

	ep := &episode{opName: "pull", finalAcc: math.NaN(), wall: end.Sub(start).Seconds()}
	cnt := pushCount{accepted: res.Pushes, stale: res.StaleRejected, quarantined: len(res.Quarantines)}
	var pushB int64
	for i, s := range stats {
		ep.check(s.err == nil, "client %d: %v", i, s.err)
		ep.latencies = append(ep.latencies, s.pulls...)
		cnt.sent += s.pushes
		cnt.errored += s.errored
		if s.pushB > 0 {
			pushB = s.pushB
		}
	}
	ep.attempted, ep.failed, ep.drained = cnt.tally()
	ep.updates = res.Pushes
	ep.ops = res.Pushes
	ep.uplinkBytes = int64(res.Pushes) * pushB
	ep.check(res.Versions == a.versions, "ended at version %d, want %d", res.Versions, a.versions)
	ep.check(res.Pushes == a.versions*asyncK, "accepted %d pushes, want versions×K = %d", res.Pushes, a.versions*asyncK)
	ep.check(res.Evictions == 0, "%d evictions", res.Evictions)
	if rep, err := session.Doctor(a.dir, "", nil); err != nil {
		ep.check(false, "doctor: %v", err)
	} else {
		ep.check(rep.Healthy(), "doctor: %v", rep.Problems)
		ep.check(rep.Round == a.versions, "latest checkpoint holds version %d, want %d", rep.Round, a.versions)
	}
	global, err := latestGlobal(a.dir)
	ep.check(err == nil, "read final global: %v", err)
	ep.check(err != nil || (len(global) == a.dim && allFinite(global)), "final global is not %d finite parameters", a.dim)

	if a.tc != nil {
		if err := a.traceLayers(ep, stats); err != nil {
			return nil, err
		}
	}
	return ep, nil
}

// client is one synthetic async client: hello, then pull → push until
// the session's version budget closes it.
func (a *asyncInstance) client(id int, st *clientStats) {
	tr := a.tc.tracer()
	conn, err := rpc.Dial("tcp", a.mgr.Addr(), rpc.WireBinary, asyncDialTimeout)
	if err != nil {
		st.err = fmt.Errorf("dial: %w", err)
		return
	}
	defer conn.Close()
	if err := conn.Send(&rpc.Envelope{Type: rpc.MsgHello, ClientID: id, NumSamples: 1, Session: asyncSession}); err != nil {
		st.err = fmt.Errorf("hello: %w", err)
		return
	}
	if e, err := conn.Recv(); err != nil || e.Type != rpc.MsgWelcome {
		st.err = fmt.Errorf("welcome: got %v (%v)", e, err)
		return
	}
	lane := tr.open("client", -1)
	defer tr.close(lane)
	pull := &rpc.Envelope{Type: rpc.MsgAsyncPull, ClientID: id}
	push := &rpc.Envelope{Type: rpc.MsgAsyncPush, ClientID: id, Update: &compress.Sparse{}}
	var model rpc.Envelope
	// A failure while the budget is still open is an error; once the
	// session has produced its last version, the teardown is expected.
	failed := func() {
		if a.sess.Version() < a.versions {
			st.errored++
		}
	}
	for {
		t0 := time.Now()
		err := conn.Send(pull)
		t1 := time.Now()
		tr.add("rpc.send", lane, t0, t1)
		if err != nil {
			failed()
			break
		}
		err = conn.RecvInto(&model)
		t2 := time.Now()
		tr.add("rpc.recv", lane, t1, t2)
		if err != nil {
			failed()
			break
		}
		if model.Type == rpc.MsgShutdown {
			break
		}
		if model.Type != rpc.MsgModel {
			st.err = fmt.Errorf("unexpected %v", model.Type)
			break
		}
		st.pulls = append(st.pulls, t2.Sub(t0).Seconds())
		dim := len(model.Params)
		rpc.FleetUpdate(push.Update, a.seed, model.Round, id, dim, min(asyncNNZ, dim))
		push.Round = model.Round
		t3 := time.Now()
		tr.add("rpc.fleet_update", lane, t2, t3)
		before := conn.BytesSent()
		err = conn.Send(push)
		tr.add("rpc.send", lane, t3, time.Now())
		if err != nil {
			failed()
			break
		}
		st.pushB = conn.BytesSent() - before
		st.pushes++
	}
	st.sent, st.recvd = conn.BytesSent(), conn.BytesReceived()
}

// latestGlobal reads the global parameters from the newest epoch of the
// delta chain in dir.
func latestGlobal(dir string) ([]float64, error) {
	_, sections, err := checkpoint.NewDeltaReader(dir, 0).ReadLatest()
	if err != nil {
		return nil, err
	}
	for _, s := range sections {
		if s.Name == "global" {
			return checkpoint.F64sFromBytes(s.Data)
		}
	}
	return nil, errors.New(`no "global" section`)
}

func (a *asyncInstance) traceLayers(ep *episode, stats []clientStats) error {
	tr, reg := a.tc.tr, a.tc.reg
	secs, sizes, err := a.tc.checkpointEvents()
	if err != nil {
		return err
	}
	var up, down int64
	for _, s := range stats {
		up += s.sent
		down += s.recvd
	}
	stale := reg.Histogram("adafl_async_staleness", session.StalenessBuckets)
	// The session runs one fold worker (AsyncConfig.Shards = 0).
	fold := reg.Histogram(`adafl_shard_fold_seconds{shard="0"}`, shard.FoldLatencyBuckets).Sum()
	ep.layers = map[string]float64{
		"rpc.bytes_up_mb":         float64(up) / 1e6,
		"rpc.bytes_down_mb":       float64(down) / 1e6,
		"rpc.send_ms":             median0(tr.durations("rpc.send")) * 1e3,
		"rpc.recv_ms":             median0(tr.durations("rpc.recv")) * 1e3,
		"checkpoint.write_ms":     median0(secs) * 1e3,
		"checkpoint.writes":       float64(len(secs)),
		"checkpoint.written_frac": writtenFrac(sizes, a.dim),
		"shard.fold_s":            fold,
		"session.pulls":           float64(reg.Counter("adafl_async_pulls_total").Value()),
		"session.pushes":          float64(reg.Counter("adafl_async_pushes_total").Value()),
		"session.staleness_mean":  stale.Sum() / math.Max(1, float64(stale.Count())),
		"bench.unexplained_frac":  unexplainedFrac(tr.spans, "client"),
	}
	return nil
}
