package rpc

import (
	"net"
	"testing"
	"time"

	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/nn"
	"adafl/internal/stats"
)

// TestServerClientDisconnectEndsCleanly: when the only client vanishes the
// server evicts it, falls below MinClients and ends the session cleanly —
// a partial result with no error, rather than an abort or a hang.
func TestServerClientDisconnectEndsCleanly(t *testing.T) {
	newModel := func() *nn.Model { return nn.NewLogistic(4, 2, stats.NewRNG(1)) }
	cfg := core.DefaultConfig()
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: 5,
		Cfg: cfg, NewModel: newModel, Logf: quiet,
		StragglerTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	resCh := make(chan *ServerResult, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := srv.Run()
		resCh <- res
		errCh <- err
	}()
	c, err := Dial("tcp", srv.Addr(), "", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(&Envelope{Type: MsgHello, ClientID: 0, NumSamples: 4}); err != nil {
		t.Fatal(err)
	}
	// Receive the first model broadcast, then vanish without replying.
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	res := <-resCh
	if err := <-errCh; err != nil {
		t.Fatalf("session should end cleanly, got %v", err)
	}
	if !res.EndedEarly {
		t.Fatal("lost-client session not flagged EndedEarly")
	}
	if res.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", res.Evictions)
	}
	if len(res.Rounds) >= 5 {
		t.Fatalf("session ran all %d rounds with no clients", len(res.Rounds))
	}
}

// TestServerRejectsDuplicateIDs: a second registration with a live id is
// turned away with a shutdown message, and the session is unharmed.
func TestServerRejectsDuplicateIDs(t *testing.T) {
	newModel := func() *nn.Model { return nn.NewLogistic(4, 2, stats.NewRNG(1)) }
	cfg := core.DefaultConfig()
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 2, Rounds: 2,
		Cfg: cfg, NewModel: newModel, Logf: quiet,
		StragglerTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	dial := func() *Conn {
		c, err := Dial("tcp", srv.Addr(), "", time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	resCh := make(chan *ServerResult, 1)
	go func() {
		res, err := srv.Run()
		if err != nil {
			t.Errorf("server: %v", err)
		}
		resCh <- res
	}()
	// waitReg blocks until the server has processed id's registration, so
	// the duplicate below deterministically arrives second.
	waitReg := func(id int) {
		t.Helper()
		for i := 0; i < 400; i++ {
			srv.mu.Lock()
			_, p := srv.pending[id]
			_, r := srv.roster[id]
			srv.mu.Unlock()
			if p || r {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("client %d never registered", id)
	}
	c1 := dial()
	if err := c1.Send(&Envelope{Type: MsgHello, ClientID: 0, NumSamples: 10}); err != nil {
		t.Fatal(err)
	}
	waitReg(0)
	c2 := dial()
	if err := c2.Send(&Envelope{Type: MsgHello, ClientID: 0, NumSamples: 10}); err != nil {
		t.Fatal(err)
	}
	// The duplicate is told to go away; the original connection stays up.
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if e, err := c2.Recv(); err == nil && e.Type != MsgShutdown {
		t.Fatalf("duplicate got %v, want shutdown", e.Type)
	}
	c2.Close()
	// Complete the quorum; the raw conns never answer, so the server
	// evicts them and ends the session cleanly.
	c3 := dial()
	if err := c3.Send(&Envelope{Type: MsgHello, ClientID: 1, NumSamples: 10}); err != nil {
		t.Fatal(err)
	}
	res := <-resCh
	if !res.EndedEarly {
		t.Fatal("mute-client session not flagged EndedEarly")
	}
	c1.Close()
	c3.Close()
}

// TestClientRejectsUnexpectedMessage ensures protocol violations error out
// instead of being silently misinterpreted — and are not retried.
func TestClientRejectsUnexpectedMessage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		// Pass the version gate like the real server so the client under
		// test gets as far as the protocol violation.
		conn, err := Accept(raw, "")
		if err != nil {
			raw.Close()
			return
		}
		conn.Recv()                          // hello
		conn.Send(&Envelope{Type: MsgScore}) // nonsense: server never sends scores
	}()

	ds := tinyDataset(t)
	res, err := RunClient(ClientConfig{
		Addr: ln.Addr().String(), ID: 0, Data: ds,
		NewModel:   func() *nn.Model { return nn.NewImageMLP([]int{1, 16, 16}, []int{8}, 10, stats.NewRNG(2)) },
		LocalSteps: 1, BatchSize: 4, LR: 0.1,
		Utility: core.DefaultUtility(), UpBps: 1e6, DownBps: 1e6,
		Logf: quiet, Seed: 3,
		MaxRetries: 5, RetryBackoff: time.Millisecond,
	})
	if err == nil {
		t.Fatal("client accepted a protocol violation")
	}
	if res.Reconnects != 0 {
		t.Fatalf("protocol violation was retried %d times", res.Reconnects)
	}
}

// TestConnRecvAfterClose returns an error, not a hang.
func TestConnRecvAfterClose(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a, nil), NewConn(b, nil)
	ca.Close()
	if _, err := cb.Recv(); err == nil {
		t.Fatal("recv on closed pipe succeeded")
	}
}

// tinyDataset builds a minimal client shard for protocol tests.
func tinyDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.SynthMNIST(40, 16, 1)
}

// TestWelcomePrecedesFirstRound holds the last client's welcome back
// after its hello has completed the quorum. Round 0 must still wait for
// that welcome: a model broadcast that overtakes it leaves the welcome
// arriving where a client expects its select, and the client fails with
// a protocol violation.
func TestWelcomePrecedesFirstRound(t *testing.T) {
	beforeWelcome = func(id int) {
		if id == 1 {
			time.Sleep(50 * time.Millisecond)
		}
	}
	t.Cleanup(func() { beforeWelcome = nil })
	newModel := func() *nn.Model { return nn.NewLogistic(4, 2, stats.NewRNG(1)) }
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 2, Rounds: 1,
		Cfg: core.DefaultConfig(), NewModel: newModel, Logf: quiet,
		StragglerTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := srv.Run()
		errCh <- err
	}()
	for id := 0; id < 2; id++ { // client 1's hello completes the quorum
		c, err := Dial("tcp", srv.Addr(), "", time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Send(&Envelope{Type: MsgHello, ClientID: id, NumSamples: 4}); err != nil {
			t.Fatal(err)
		}
		e, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if e.Type != MsgWelcome {
			t.Fatalf("client %d: first message %v, want the welcome", id, e.Type)
		}
	}
	srv.Kill()
	if err := <-errCh; err != nil && err != ErrServerKilled {
		t.Fatal(err)
	}
}
