package rpc

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"adafl/internal/compress"
	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/nn"
	"adafl/internal/obs"
	"adafl/internal/stats"
)

func quiet(string, ...interface{}) {}

func TestConnRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a, nil), NewConn(b, nil)
	done := make(chan *Envelope, 1)
	go func() {
		e, err := cb.Recv()
		if err != nil {
			t.Error(err)
		}
		done <- e
	}()
	want := &Envelope{Type: MsgScore, ClientID: 3, Round: 7, Score: 0.75}
	if err := ca.Send(want); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got.Type != want.Type || got.ClientID != 3 || got.Round != 7 || got.Score != 0.75 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if ca.BytesSent() == 0 || cb.BytesReceived() == 0 {
		t.Fatal("byte counters not advancing")
	}
	ca.Close()
	cb.Close()
}

func TestConnSparsePayload(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a, nil), NewConn(b, nil)
	defer ca.Close()
	defer cb.Close()
	go func() {
		ca.Send(&Envelope{Type: MsgUpdate, Update: sparseFixture()})
	}()
	e, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if e.Update == nil || e.Update.Dim != 4 || e.Update.Values[1] != -2 {
		t.Fatalf("sparse payload corrupted: %+v", e.Update)
	}
}

func sparseFixture() *compress.Sparse {
	return &compress.Sparse{Dim: 4, Indices: []int32{0, 2}, Values: []float64{1, -2}}
}

// TestEndToEndSession runs a real server and three client goroutines over
// localhost TCP and verifies the federation learns.
func TestEndToEndSession(t *testing.T) {
	const clients = 3
	seed := uint64(5)
	ds := dataset.SynthMNIST(600, 16, seed)
	train, test := ds.Split(0.8, seed+1)
	parts := dataset.PartitionIID(train, clients, seed+2)
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, 16, 16}, []int{32}, 10, stats.NewRNG(seed+3))
	}

	cfg := core.DefaultConfig()
	cfg.Compression.WarmupRounds = 2
	cfg.ScaleRatiosForModel(9000)
	cfg.K = 2

	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: clients, Rounds: 12,
		Cfg: cfg, NewModel: newModel, Test: test, EvalEvery: 4, Logf: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	clientResults := make([]*ClientResult, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunClient(ClientConfig{
				Addr: srv.Addr(), ID: i, Data: parts[i], NewModel: newModel,
				LocalSteps: 3, BatchSize: 16, LR: 0.1, Momentum: 0.9,
				Utility: cfg.Utility, UpBps: 1e6, DownBps: 1e6,
				DGCClip: 10, DGCMsgClip: 2, Seed: seed + uint64(i),
				Logf: quiet,
			})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			clientResults[i] = res
		}()
	}

	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if len(res.Rounds) != 12 {
		t.Fatalf("rounds recorded %d", len(res.Rounds))
	}
	if res.FinalAcc < 0.4 {
		t.Fatalf("distributed session did not learn: acc %.3f", res.FinalAcc)
	}
	if res.BytesReceived == 0 {
		t.Fatal("no uplink bytes")
	}
	for i, cr := range clientResults {
		if cr == nil {
			t.Fatalf("client %d produced no result", i)
		}
		if cr.Rounds != 12 {
			t.Errorf("client %d saw %d rounds", i, cr.Rounds)
		}
		if cr.Uploads == 0 || cr.Uploads > 12 {
			t.Errorf("client %d uploads %d", i, cr.Uploads)
		}
		if cr.BytesSent == 0 {
			t.Errorf("client %d sent no bytes", i)
		}
	}
	// Selection must have withheld some uploads post-warmup (K=2 of 3).
	totalUploads := 0
	for _, cr := range clientResults {
		totalUploads += cr.Uploads
	}
	if totalUploads >= clients*12 {
		t.Fatalf("no uploads withheld: %d", totalUploads)
	}
}

// TestThrottledClientStillWorks exercises the token-bucket path end to end
// with a generous rate so the test stays fast.
func TestThrottledClientStillWorks(t *testing.T) {
	seed := uint64(9)
	ds := dataset.SynthMNIST(200, 16, seed)
	train, test := ds.Split(0.8, seed+1)
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, 16, 16}, []int{16}, 10, stats.NewRNG(seed+3))
	}
	cfg := core.DefaultConfig()
	cfg.Compression.WarmupRounds = 1
	cfg.ScaleRatiosForModel(5000)
	cfg.K = 1

	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: 3,
		Cfg: cfg, NewModel: newModel, Test: test, EvalEvery: 3, Logf: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunClient(ClientConfig{
			Addr: srv.Addr(), ID: 0, Data: train, NewModel: newModel,
			LocalSteps: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9,
			Utility: cfg.Utility, UpBps: 5e6, DownBps: 5e6,
			ThrottleUplink: true,
			DGCClip:        10, DGCMsgClip: 2, Seed: seed,
			Logf: quiet,
		})
		done <- err
	}()
	if _, err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("zero clients/rounds accepted")
	}
	if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", NumClients: 2, Rounds: 1, MinClients: 3}); err == nil {
		t.Fatal("MinClients > NumClients accepted")
	}
}

// TestZeroGlobalDeltaPlansWarmup runs a loopback session with no
// configured warm-up: the global delta is still zero at round 0, so the
// planner's zero-delta rule must give every client the warm-up ratio
// instead of ranking scores measured against a direction that does not
// exist yet. Round 1 has a real delta and selects K.
func TestZeroGlobalDeltaPlansWarmup(t *testing.T) {
	const clients = 3
	seed := uint64(13)
	ds := dataset.SynthMNIST(300, 16, seed)
	train, test := ds.Split(0.8, seed+1)
	parts := dataset.PartitionIID(train, clients, seed+2)
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, 16, 16}, []int{16}, 10, stats.NewRNG(seed+3))
	}
	cfg := core.DefaultConfig()
	cfg.Compression.WarmupRounds = 0
	cfg.ScaleRatiosForModel(5000)
	cfg.K = 1

	var events bytes.Buffer
	evlog := obs.NewEventLogWriter(&events)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: clients, Rounds: 2,
		Cfg: cfg, NewModel: newModel, Test: test, EvalEvery: 2, Logf: quiet,
		Events: evlog,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunClient(ClientConfig{
				Addr: srv.Addr(), ID: i, Data: parts[i], NewModel: newModel,
				LocalSteps: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9,
				Utility: cfg.Utility, UpBps: 1e6, DownBps: 1e6,
				DGCClip: 10, DGCMsgClip: 2, Seed: seed + uint64(i), Logf: quiet,
			}); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}()
	}
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := evlog.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := res.Rounds[0].Selected; got != clients {
		t.Fatalf("round 0 selected %d of %d clients with a zero global delta", got, clients)
	}
	if got := res.Rounds[1].Selected; got != cfg.K {
		t.Fatalf("round 1 selected %d clients, want K=%d", got, cfg.K)
	}
	evs, err := obs.ReadEvents(&events)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if ev.Type != "selection" || ev.Round != 0 {
			continue
		}
		for id, ratio := range ev.Ratios {
			if ratio != cfg.Compression.WarmupRatio {
				t.Fatalf("round 0 client %d: ratio %v, want warm-up ratio %v", id, ratio, cfg.Compression.WarmupRatio)
			}
		}
		return
	}
	t.Fatal("no round-0 selection event")
}
