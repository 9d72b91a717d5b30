package rpc

import (
	"math"
	"strings"
	"testing"
	"time"

	"adafl/internal/compress"
)

// --- unit level: the screen itself ------------------------------------

func mkUpdate(client int, dim int, idx []int32, vals []float64) roundUpdate {
	return roundUpdate{clientID: client, samples: 100,
		upd: &compress.Sparse{Dim: dim, Indices: idx, Values: vals}}
}

// TestScreenUpdatesBitwiseUnaffected is the acceptance property in
// miniature: aggregating a screened round that contained malformed and
// outlier updates produces a global model bitwise identical to a round
// that only ever saw the honest updates.
func TestScreenUpdatesBitwiseUnaffected(t *testing.T) {
	const dim = 16
	honest := []roundUpdate{
		mkUpdate(0, dim, []int32{1, 5}, []float64{0.2, -0.1}),
		mkUpdate(1, dim, []int32{0, 9}, []float64{-0.3, 0.15}),
		mkUpdate(2, dim, []int32{2, 7}, []float64{0.25, 0.05}),
	}
	attack := []roundUpdate{
		mkUpdate(7, dim, []int32{0, int32(dim)}, []float64{1, 999}), // index out of range
		mkUpdate(8, dim, []int32{0, 1}, []float64{1}),               // length mismatch
		mkUpdate(9, dim, []int32{3, 4}, []float64{4e6, -7e6}),       // norm outlier
		mkUpdate(10, dim, []int32{2}, []float64{math.NaN()}),        // entirely non-finite
		{clientID: 11, samples: 50, upd: nil},                       // nil message
	}
	aggregate := func(ups []roundUpdate) []float64 {
		global := make([]float64, dim)
		for i := range global {
			global[i] = float64(i) * 0.01
		}
		weightSum := 0.0
		agg := make([]float64, dim)
		for _, u := range ups {
			w := float64(u.samples) / 1000.0
			u.upd.AddTo(agg, w)
			weightSum += w
		}
		if weightSum > 0 {
			for i := range global {
				global[i] += agg[i] / weightSum
			}
		}
		return global
	}

	want := aggregate(honest)
	kept, quarantined := screenUpdates(3, dim, 10, append(append([]roundUpdate{}, honest...), attack...), quiet)
	got := aggregate(kept)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("screened aggregation differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if len(quarantined) != len(attack) {
		t.Fatalf("quarantined %d updates, want %d: %+v", len(quarantined), len(attack), quarantined)
	}
	byClient := map[int]QuarantineRecord{}
	for _, q := range quarantined {
		if q.Round != 3 {
			t.Errorf("quarantine record round %d, want 3", q.Round)
		}
		byClient[q.ClientID] = q
	}
	for client, frag := range map[int]string{
		7:  "out of range",
		8:  "indices vs",
		9:  "round median",
		10: "non-finite",
		11: "nil message",
	} {
		q, ok := byClient[client]
		if !ok {
			t.Errorf("client %d not quarantined", client)
			continue
		}
		if !strings.Contains(q.Reason, frag) {
			t.Errorf("client %d: reason %q missing %q", client, q.Reason, frag)
		}
	}
	if byClient[9].Norm == 0 {
		t.Error("norm-gated record did not carry the offending norm")
	}
}

// TestScreenUpdatesScrubsPartialNaN: a mostly-finite update survives
// with its non-finite coordinates zeroed, rather than being dropped.
func TestScreenUpdatesScrubsPartialNaN(t *testing.T) {
	const dim = 8
	u := mkUpdate(0, dim, []int32{0, 1, 2}, []float64{1, math.NaN(), 2})
	kept, quarantined := screenUpdates(0, dim, 0, []roundUpdate{u}, quiet)
	if len(quarantined) != 0 || len(kept) != 1 {
		t.Fatalf("partially non-finite update mishandled: kept %d quarantined %d", len(kept), len(quarantined))
	}
	if v := kept[0].upd.Values[1]; v != 0 {
		t.Fatalf("NaN coordinate not scrubbed: %v", v)
	}
}

// TestScreenUpdatesNormGateNeedsQuorumAndScale: the gate stays out of
// the way with fewer than three updates or an all-zero round.
func TestScreenUpdatesNormGateNeedsQuorumAndScale(t *testing.T) {
	const dim = 4
	big := mkUpdate(0, dim, []int32{0}, []float64{1e9})
	small := mkUpdate(1, dim, []int32{1}, []float64{1e-9})
	kept, quarantined := screenUpdates(0, dim, 2, []roundUpdate{big, small}, quiet)
	if len(kept) != 2 || len(quarantined) != 0 {
		t.Fatalf("gate engaged below the update quorum: kept %d", len(kept))
	}
	zeros := []roundUpdate{
		mkUpdate(0, dim, []int32{0}, []float64{0}),
		mkUpdate(1, dim, []int32{1}, []float64{0}),
		mkUpdate(2, dim, []int32{2}, []float64{0.5}),
	}
	kept, quarantined = screenUpdates(0, dim, 2, zeros, quiet)
	if len(kept) != 3 || len(quarantined) != 0 {
		t.Fatalf("gate fired on a zero-median round: kept %d quarantined %d", len(kept), len(quarantined))
	}
}

// --- end to end: a hostile client against a live server ----------------

// evilResult records what a protocol-conformant but hostile client saw.
type evilResult struct {
	broadcasts [][]float64 // Params of every MsgModel received
	redials    int
	err        error
}

// runEvilClient speaks the wire protocol honestly except for its
// updates, which come from mkUpd. It redials (bounded) when the server
// cuts it off, so a quarantined-then-evicted client can rejoin and the
// test can observe consecutive round broadcasts.
func runEvilClient(addr string, id, samples, maxRedials int,
	mkUpd func(round, dim int) *compress.Sparse) *evilResult {
	res := &evilResult{}
	for attempt := 0; ; attempt++ {
		conn, err := Dial("tcp", addr, "", 5*time.Second)
		if err != nil {
			if attempt >= maxRedials {
				res.err = err
				return res
			}
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if attempt > 0 {
			res.redials++
		}
		done := func() bool {
			defer conn.Close()
			if err := conn.Send(&Envelope{Type: MsgHello, ClientID: id, NumSamples: samples}); err != nil {
				return false
			}
			for {
				e, err := conn.Recv()
				if err != nil {
					return false
				}
				switch e.Type {
				case MsgShutdown:
					return true
				case MsgWelcome:
					// fine; keep listening
				case MsgModel:
					res.broadcasts = append(res.broadcasts, append([]float64(nil), e.Params...))
					if err := conn.Send(&Envelope{Type: MsgScore, ClientID: id, Round: e.Round, Score: 1}); err != nil {
						return false
					}
					sel, err := conn.Recv()
					if err != nil || sel.Type != MsgSelect {
						return false
					}
					if sel.Ratio <= 0 {
						continue
					}
					upd := mkUpd(e.Round, len(e.Params))
					if err := conn.Send(&Envelope{Type: MsgUpdate, ClientID: id, Round: e.Round, Update: upd}); err != nil {
						return false
					}
				default:
					return false
				}
			}
		}()
		if done {
			return res
		}
		if attempt >= maxRedials {
			return res
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestQuarantineMalformedUpdateBitwiseE2E is the acceptance scenario on
// a real socket: the only client in the session ships an update with
// out-of-range indices every round. The server must quarantine it
// (evict + record the reason), keep the session alive through
// re-admission, and broadcast a bit-for-bit unchanged global model the
// next round — proof the poisoned update never touched it.
func TestQuarantineMalformedUpdateBitwiseE2E(t *testing.T) {
	env := newChaosEnv(1, 160, 12, 16, 81)
	scfg := env.serverConfig(2)
	var srv *Server
	scfg.OnRound = func(rec RoundRecord) {
		if rec.Round == 0 {
			waitForClient(t, srv, 0, 10*time.Second)
		}
	}
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	outCh := make(chan *evilResult, 1)
	go func() {
		outCh <- runEvilClient(srv.Addr(), 0, env.parts[0].Len(), 50,
			func(round, dim int) *compress.Sparse {
				return &compress.Sparse{Dim: dim,
					Indices: []int32{0, int32(dim + 7)}, Values: []float64{5, 1e6}}
			})
	}()
	res, err := srv.Run()
	if err != nil {
		t.Fatalf("server aborted: %v", err)
	}
	evil := <-outCh

	if len(res.Rounds) != 2 {
		t.Fatalf("completed %d/2 rounds", len(res.Rounds))
	}
	if len(res.Quarantines) != 2 {
		t.Fatalf("quarantines = %d, want one per round: %+v", len(res.Quarantines), res.Quarantines)
	}
	for i, q := range res.Quarantines {
		if q.ClientID != 0 || q.Round != i {
			t.Errorf("quarantine %d: client %d round %d", i, q.ClientID, q.Round)
		}
		if !strings.Contains(q.Reason, "out of range") {
			t.Errorf("quarantine reason %q does not name the bad index", q.Reason)
		}
	}
	for _, rec := range res.Rounds {
		if rec.Quarantined != 1 || rec.Received != 0 {
			t.Errorf("round %d: quarantined %d received %d, want 1/0", rec.Round, rec.Quarantined, rec.Received)
		}
	}
	if res.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2 (one per quarantined round)", res.Evictions)
	}
	// The heart of the test: the round-1 broadcast is bitwise the
	// round-0 broadcast, because the only update ever received was
	// quarantined before aggregation.
	if len(evil.broadcasts) < 2 {
		t.Fatalf("evil client saw %d broadcasts, want 2 (did re-admission fail?)", len(evil.broadcasts))
	}
	p0, p1 := evil.broadcasts[0], evil.broadcasts[1]
	if len(p0) != len(p1) {
		t.Fatalf("broadcast lengths differ: %d vs %d", len(p0), len(p1))
	}
	for i := range p0 {
		if p0[i] != p1[i] {
			t.Fatalf("global model changed at coordinate %d (%v -> %v) despite quarantine", i, p0[i], p1[i])
		}
	}
	if evil.redials == 0 {
		t.Error("evicted client never redialled")
	}
}

// TestQuarantineNormOutlierE2E: three honest clients plus one shipping
// structurally valid updates with absurd magnitudes. The norm gate must
// quarantine the outlier against the round-median norm while the honest
// majority trains on undisturbed.
func TestQuarantineNormOutlierE2E(t *testing.T) {
	env := newChaosEnv(4, 480, 12, 16, 91)
	const rounds = 4
	scfg := env.serverConfig(rounds)
	scfg.MaxUpdateNorm = 5
	var srv *Server
	scfg.OnRound = func(rec RoundRecord) {
		// Hold each boundary until the (repeatedly evicted) outlier has
		// redialled, so it is present — and screened — every round.
		waitForClient(t, srv, 3, 10*time.Second)
	}
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]ClientConfig, 3)
	for i := range cfgs {
		cfgs[i] = env.clientConfig(i, srv.Addr())
	}
	honestCh := make(chan []error, 1)
	go func() {
		_, errs := runClients(cfgs)
		honestCh <- errs
	}()
	evilCh := make(chan *evilResult, 1)
	go func() {
		evilCh <- runEvilClient(srv.Addr(), 3, 120, 100,
			func(round, dim int) *compress.Sparse {
				vals := make([]float64, 8)
				idx := make([]int32, 8)
				for i := range vals {
					idx[i] = int32(i)
					vals[i] = 3e7
				}
				return &compress.Sparse{Dim: dim, Indices: idx, Values: vals}
			})
	}()
	res, err := srv.Run()
	if err != nil {
		t.Fatalf("server aborted: %v", err)
	}
	<-evilCh
	for i, cerr := range <-honestCh {
		if cerr != nil {
			t.Errorf("honest client %d: %v", i, cerr)
		}
	}
	if len(res.Rounds) != rounds {
		t.Fatalf("completed %d/%d rounds", len(res.Rounds), rounds)
	}
	if len(res.Quarantines) == 0 {
		t.Fatal("norm outlier never quarantined")
	}
	for _, q := range res.Quarantines {
		if q.ClientID != 3 {
			t.Errorf("quarantined honest client %d: %s", q.ClientID, q.Reason)
		}
		if !strings.Contains(q.Reason, "round median") {
			t.Errorf("quarantine reason %q does not cite the median gate", q.Reason)
		}
		if q.Norm == 0 {
			t.Error("outlier record missing its norm")
		}
	}
	// Honest training was not collateral damage.
	if res.FinalAcc < 0.3 {
		t.Fatalf("session with gated outlier failed to learn: acc %.3f", res.FinalAcc)
	}
}
