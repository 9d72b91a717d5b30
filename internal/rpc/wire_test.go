package rpc

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adafl/internal/compress"
	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/nn"
	"adafl/internal/obs"
	"adafl/internal/stats"
)

// captureConn records writes so a Conn can be used as a frame encoder.
type captureConn struct {
	byteConn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// encodeBinaryEnvelope renders e as one binary wire frame.
func encodeBinaryEnvelope(tb testing.TB, e *Envelope) []byte {
	tb.Helper()
	cc := &captureConn{}
	conn := NewConn(cc, nil)
	if err := conn.Send(e); err != nil {
		tb.Fatalf("encode %v: %v", e.Type, err)
	}
	return cc.buf.Bytes()
}

// repeatReader replays the same bytes forever: an endless stream of
// identical frames for steady-state receive measurements.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// wireFixtures extends the shared fixtures with the binary codec's edge
// cases: nil-vs-empty slices, a dense-identity sparse payload (indices
// omitted on the wire) and an empty shutdown string.
func wireFixtures() []*Envelope {
	fx := fixtureEnvelopes()
	dense := compress.NewSparseDense(make([]float64, 5))
	for i := range dense.Values {
		dense.Values[i] = float64(i) * 0.25
	}
	return append(fx,
		&Envelope{Type: MsgModel, Round: 2, Params: []float64{1, 2, 3}},         // nil GlobalDelta
		&Envelope{Type: MsgUpdate, ClientID: 9, Round: 3, Update: dense},        // dense identity
		&Envelope{Type: MsgUpdate, Round: 1, Update: &compress.Sparse{Dim: 16}}, // empty update
		&Envelope{Type: MsgShutdown},                                            // empty info
		&Envelope{Type: MsgScore, ClientID: -1, Round: 0, Score: math.Inf(1)},   // sentinel id, Inf
		&Envelope{Type: MsgUpdate, Update: &compress.Sparse{Dim: 1 << 20, Indices: []int32{1 << 19}, Values: []float64{-0.5}}},
	)
}

// TestWireRoundTripAllTypes: every message type survives a binary
// encode/decode round trip through a real Conn pair unchanged, including
// NaN/Inf values and nil-vs-empty slice distinctions.
func TestWireRoundTripAllTypes(t *testing.T) {
	for _, want := range wireFixtures() {
		want := want
		a, b := net.Pipe()
		ca, cb := NewConn(a, nil), NewConn(b, nil)
		errCh := make(chan error, 1)
		go func() { errCh <- ca.Send(want) }()
		got, err := cb.Recv()
		if err != nil {
			t.Fatalf("type %v: recv: %v", want.Type, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("type %v: send: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("type %v round trip mismatch:\n got %+v\nwant %+v", want.Type, got, want)
		}
		ca.Close()
		cb.Close()
	}
}

// TestWireExactByteAccounting pins the binary codec's accounting
// guarantee: both ends count exactly 4 + payload bytes per message — no
// decoder read-ahead, no bufio slack.
func TestWireExactByteAccounting(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a, nil), NewConn(b, nil)
	defer ca.Close()
	defer cb.Close()
	for _, e := range wireFixtures() {
		e := e
		size, err := e.wirePayloadSize()
		if err != nil {
			t.Fatal(err)
		}
		sentBefore, recvBefore := ca.BytesSent(), cb.BytesReceived()
		errCh := make(chan error, 1)
		go func() { errCh <- ca.Send(e) }()
		if _, err := cb.Recv(); err != nil {
			t.Fatalf("type %v: recv: %v", e.Type, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("type %v: send: %v", e.Type, err)
		}
		want := int64(4 + size)
		if got := ca.BytesSent() - sentBefore; got != want {
			t.Errorf("type %v: sender counted %d bytes, frame is %d", e.Type, got, want)
		}
		if got := cb.BytesReceived() - recvBefore; got != want {
			t.Errorf("type %v: receiver counted %d bytes, frame is %d", e.Type, got, want)
		}
	}
}

// TestWireSizeCapExact: the binary cap is judged from the declared frame
// size (prefix included) before any payload byte is read — a frame of
// exactly the cap passes, one byte over fails, and the oversized frame's
// payload is never pulled off the wire.
func TestWireSizeCapExact(t *testing.T) {
	e := &Envelope{Type: MsgModel, Round: 1, Params: make([]float64, 512)}
	for i := range e.Params {
		e.Params[i] = float64(i)
	}
	raw := encodeBinaryEnvelope(t, e)
	frame := int64(len(raw))

	at := NewConn(&byteConn{r: bytes.NewReader(raw)}, nil)
	at.SetMaxMessage(frame)
	if _, err := at.Recv(); err != nil {
		t.Fatalf("frame of exactly the cap rejected: %v", err)
	}

	over := NewConn(&byteConn{r: bytes.NewReader(raw)}, nil)
	over.SetMaxMessage(frame - 1)
	_, err := over.Recv()
	if !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("cap-1 error = %v, want ErrMessageTooLarge", err)
	}
	if got := over.BytesReceived(); got != 4 {
		t.Fatalf("capped recv consumed %d bytes, want only the 4-byte prefix", got)
	}

	uncapped := NewConn(&byteConn{r: bytes.NewReader(raw)}, nil)
	uncapped.SetMaxMessage(0)
	if _, err := uncapped.Recv(); err != nil {
		t.Fatalf("uncapped conn failed: %v", err)
	}
}

// TestWireTruncationErrors: cut streams produce clean errors (clean EOF
// only at a frame boundary), never panics or hangs.
func TestWireTruncationErrors(t *testing.T) {
	raw := encodeBinaryEnvelope(t, fixtureEnvelopes()[1]) // MsgModel
	cuts := []int{0, 1, 3, 4, 5, envHeaderBytes, len(raw) / 2, len(raw) - 1}
	for _, cut := range cuts {
		c := NewConn(&byteConn{r: bytes.NewReader(raw[:cut])}, nil)
		_, err := c.Recv()
		if err == nil {
			t.Fatalf("cut at %d of %d decoded successfully", cut, len(raw))
		}
		if cut == 0 && err != io.EOF {
			t.Errorf("empty stream: err = %v, want clean io.EOF", err)
		}
		if cut > 0 && err == io.EOF {
			t.Errorf("cut at %d reported a clean EOF", cut)
		}
	}
	// A complete frame followed by a cut one: first decodes, second errors.
	c := NewConn(&byteConn{r: bytes.NewReader(append(append([]byte{}, raw...), raw[:7]...))}, nil)
	if _, err := c.Recv(); err != nil {
		t.Fatalf("intact first frame: %v", err)
	}
	if _, err := c.Recv(); err == nil || err == io.EOF {
		t.Fatalf("truncated second frame: err = %v", err)
	}
}

// TestWireNegotiate covers the version gate. upgrade: a client that
// sends the preamble reads back the exact echo and both ends speak
// binary frames. Every other subtest opens a rogue connection to a live
// server with something other than the preamble — a gob-encoded hello
// from a pre-binary build, a wrong version byte (declined), random
// bytes, or two bytes and a stall — and the server must close it within
// the hello deadline without writing a byte, while it finishes the
// session with its real client.
func TestWireNegotiate(t *testing.T) {
	t.Run("upgrade", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		conns := make(chan *Conn, 1)
		go func() {
			raw, err := ln.Accept()
			if err != nil {
				close(conns)
				return
			}
			conn, err := Accept(raw, "")
			if err != nil {
				raw.Close()
				close(conns)
				return
			}
			conns <- conn
		}()
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := clientHandshake(raw, time.Second); err != nil {
			t.Fatalf("handshake with an accepting server: %v", err)
		}
		cc := NewConn(raw, nil)
		defer cc.Close()
		sc := <-conns
		if sc == nil {
			t.Fatal("server rejected the preamble")
		}
		defer sc.Close()
		go cc.Send(&Envelope{Type: MsgHello, ClientID: 4, NumSamples: 77})
		e, err := sc.Recv()
		if err != nil || e.Type != MsgHello || e.NumSamples != 77 {
			t.Fatalf("post-handshake exchange: %+v, %v", e, err)
		}
	})

	var gobHello bytes.Buffer
	if err := gob.NewEncoder(&gobHello).Encode(&Envelope{Type: MsgHello, ClientID: 0, NumSamples: 5}); err != nil {
		t.Fatal(err)
	}
	wrongVersion := wirePreamble
	wrongVersion[3] = wireVersion + 1
	random := make([]byte, 64)
	rng := stats.NewRNG(13)
	for i := range random {
		random[i] = byte(rng.Intn(256))
	}
	if bytes.HasPrefix(random, wirePreamble[:]) {
		t.Fatal("random opener starts with the preamble")
	}
	for _, tc := range []struct {
		name   string
		opener []byte
	}{
		{"gob-client", gobHello.Bytes()},
		{"declined", wrongVersion[:]},
		{"random-bytes", random},
		{"stalled", wirePreamble[:2]},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rogueOpenerSession(t, tc.opener)
		})
	}
}

// rogueOpenerSession runs a deterministic one-client session while a
// rogue connection opens with the given bytes, and checks that the server
// closes the rogue connection within the hello deadline without writing
// to it and still completes every round with its real client.
func rogueOpenerSession(t *testing.T, opener []byte) {
	t.Helper()
	const rounds = 2
	seed := uint64(31)
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
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: rounds,
		Cfg: cfg, NewModel: newModel, Test: test, EvalEvery: 2, Logf: quiet,
		StragglerTimeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	rogue, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	dialed := time.Now()
	if _, err := rogue.Write(opener); err != nil {
		t.Fatal(err)
	}
	type readOut struct {
		n     int64
		after time.Duration
	}
	closed := make(chan readOut, 1)
	go func() {
		rogue.SetReadDeadline(dialed.Add(helloTimeout + 5*time.Second))
		n, _ := io.Copy(io.Discard, rogue)
		closed <- readOut{n, time.Since(dialed)}
	}()

	done := make(chan error, 1)
	go func() {
		_, err := RunClient(ClientConfig{
			Addr: srv.Addr(), ID: 0, Data: train, NewModel: newModel,
			LocalSteps: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9,
			Utility: cfg.Utility, UpBps: 1e6, DownBps: 1e6,
			DGCClip: 10, DGCMsgClip: 2, Seed: seed,
			Logf: quiet,
		})
		done <- err
	}()
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Errorf("real client: %v", err)
	}
	if len(res.Rounds) != rounds || res.EndedEarly {
		t.Errorf("session ran %d of %d rounds (ended early: %v)", len(res.Rounds), rounds, res.EndedEarly)
	}
	r := <-closed
	if r.n != 0 {
		t.Errorf("server wrote %d bytes to the rogue connection", r.n)
	}
	if r.after > helloTimeout+time.Second {
		t.Errorf("rogue connection stayed open %v, hello deadline is %v", r.after, helloTimeout)
	}
}

// TestClientRedialsDroppedPreamble: a lossy client whose very first write
// — the wire preamble — is dropped treats the failed handshake as an
// ordinary failed dial. It is logged as a lost link, counted in
// Reconnects and the redials metric, and the redial passes the version
// gate like any other connection.
func TestClientRedialsDroppedPreamble(t *testing.T) {
	const dropSeed = 5
	fault := func() *FaultConfig { return &FaultConfig{DropProb: 0.3, Seed: dropSeed} }
	// The schedule replays from its seed: the first connection wrapped
	// from a fresh config drops its first write.
	if _, err := WrapFault(&byteConn{}, fault()).Write(wirePreamble[:]); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("fault seed %d: first write not dropped (%v)", dropSeed, err)
	}

	env := newChaosEnv(2, 240, 12, 16, 61)
	const rounds = 6
	scfg := env.serverConfig(rounds)
	reg := obs.NewRegistry()
	scfg.Metrics = reg
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []ClientConfig{env.clientConfig(0, srv.Addr()), env.clientConfig(1, srv.Addr())}
	clientReg := obs.NewRegistry()
	var mu sync.Mutex
	var lines []string
	cfgs[1].Fault = fault()
	cfgs[1].MaxRetries = 8
	cfgs[1].RetryBackoff = 5 * time.Millisecond
	cfgs[1].Metrics = clientReg
	cfgs[1].Logf = func(format string, args ...interface{}) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	type out struct {
		res  []*ClientResult
		errs []error
	}
	outCh := make(chan out, 1)
	go func() {
		r, e := runClients(cfgs)
		outCh <- out{r, e}
	}()
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	o := <-outCh
	if len(res.Rounds) != rounds {
		t.Fatalf("completed %d/%d rounds", len(res.Rounds), rounds)
	}
	if o.errs[0] != nil {
		t.Errorf("stable client: %v", o.errs[0])
	}
	lossy := o.res[1]
	if lossy == nil || lossy.Reconnects < 1 {
		t.Fatalf("lossy client result %+v, want at least one reconnect", lossy)
	}
	if redials := clientReg.Counter("adafl_client_redials_total").Value(); int(redials) != lossy.Reconnects {
		t.Errorf("redials metric %v, Reconnects %d", redials, lossy.Reconnects)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) == 0 || !strings.Contains(lines[0], "link lost") || !strings.Contains(lines[0], "wire preamble") {
		t.Fatalf("lossy client's first log line %q, want the dropped preamble reported as a lost link", lines)
	}
	if got := reg.Counter(`adafl_wire_messages_total{codec="binary"}`).Value(); got <= 0 {
		t.Errorf("server counted %v binary messages", got)
	}
}

// TestClientRejectsWrongWireVersion: a server that acknowledges the
// preamble with another version byte speaks a different wire protocol.
// RunClient fails with errProtocol at once instead of spending its retry
// budget on redials that cannot succeed.
func TestClientRejectsWrongWireVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int32
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func() {
				defer raw.Close()
				var pre [4]byte
				if _, err := io.ReadFull(raw, pre[:]); err != nil {
					return
				}
				ack := wirePreamble
				ack[3] = wireVersion + 1
				raw.Write(ack[:])
				io.Copy(io.Discard, raw)
			}()
		}
	}()
	res, err := RunClient(ClientConfig{
		Addr: ln.Addr().String(), ID: 0, Data: tinyDataset(t),
		NewModel:   func() *nn.Model { return nn.NewImageMLP([]int{1, 16, 16}, []int{8}, 10, stats.NewRNG(2)) },
		LocalSteps: 1, BatchSize: 4, LR: 0.1,
		Utility: core.DefaultUtility(), UpBps: 1e6, DownBps: 1e6,
		Logf: quiet, Seed: 3,
		MaxRetries: 5, RetryBackoff: time.Millisecond, DialTimeout: time.Second,
	})
	if !errors.Is(err, errProtocol) {
		t.Fatalf("wrong wire version: err = %v, want a protocol violation", err)
	}
	if res.Reconnects != 0 || accepts.Load() != 1 {
		t.Fatalf("wrong wire version retried: %d reconnects, %d dials", res.Reconnects, accepts.Load())
	}
}

// allocEnvelopes returns the steady-state hot-path messages at realistic
// sizes: a sparse update and a dense model broadcast.
func allocEnvelopes() (update, model *Envelope) {
	rng := stats.NewRNG(7)
	up := &compress.Sparse{Dim: 8192, Indices: make([]int32, 256), Values: make([]float64, 256)}
	for i := range up.Indices {
		up.Indices[i] = int32(rng.Intn(8192))
		up.Values[i] = rng.NormScaled(0, 0.01)
	}
	params := make([]float64, 2048)
	delta := make([]float64, 2048)
	for i := range params {
		params[i] = rng.NormScaled(0, 1)
		delta[i] = rng.NormScaled(0, 0.01)
	}
	return &Envelope{Type: MsgUpdate, ClientID: 1, Round: 5, Update: up},
		&Envelope{Type: MsgModel, Round: 5, Params: params, GlobalDelta: delta}
}

// TestWireZeroAllocSend pins the tentpole guarantee: steady-state binary
// sends of the hot-path messages allocate nothing.
func TestWireZeroAllocSend(t *testing.T) {
	update, model := allocEnvelopes()
	for _, tc := range []struct {
		name string
		e    *Envelope
	}{{"update", update}, {"model", model}} {
		conn := NewConn(&byteConn{}, nil)
		if allocs := testing.AllocsPerRun(100, func() {
			if err := conn.Send(tc.e); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("steady-state %s send: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestWireZeroAllocRecvInto pins the receive side: RecvInto decodes the
// hot-path messages into connection-owned scratch with zero allocations.
func TestWireZeroAllocRecvInto(t *testing.T) {
	update, model := allocEnvelopes()
	for _, tc := range []struct {
		name string
		e    *Envelope
	}{{"update", update}, {"model", model}} {
		raw := encodeBinaryEnvelope(t, tc.e)
		conn := NewConn(&byteConn{r: &repeatReader{data: raw}}, nil)
		var env Envelope
		// Prime the connection scratch (first decode allocates it).
		if err := conn.RecvInto(&env); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := conn.RecvInto(&env); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("steady-state %s recv: %v allocs/op, want 0", tc.name, allocs)
		}
		// The scratch decode must still be faithful.
		if env.Round != tc.e.Round || env.Type != tc.e.Type {
			t.Errorf("%s scratch decode corrupted: %+v", tc.name, &env)
		}
	}
}

// TestWireConcurrentSendRecv: Send and Recv stay goroutine-safe on a
// binary conn (the server shares one Conn between round goroutines and
// the shutdown path).
func TestWireConcurrentSendRecv(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a, nil), NewConn(b, nil)
	defer ca.Close()
	defer cb.Close()
	const n = 50
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := ca.Send(&Envelope{Type: MsgScore, ClientID: g, Round: i, Score: 0.5}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	got := 0
	for got < 2*n {
		e, err := cb.Recv()
		if err != nil {
			t.Fatalf("recv after %d: %v", got, err)
		}
		if e.Type != MsgScore || e.Score != 0.5 {
			t.Fatalf("interleaved frame corrupted: %+v", e)
		}
		got++
	}
	wg.Wait()
}

// TestWireHelloSessionLegacyInterop pins the multi-session hello
// extension's compatibility contract: an empty session encodes as the
// legacy 4-byte hello body, and a hand-built legacy frame decodes with
// Session == "" — pre-session peers and session-aware peers interoperate
// in both directions.
func TestWireHelloSessionLegacyInterop(t *testing.T) {
	plain := &Envelope{Type: MsgHello, ClientID: 3, NumSamples: 412}
	if size, err := plain.wirePayloadSize(); err != nil || size != envHeaderBytes+4 {
		t.Fatalf("plain hello payload = %d (%v), want legacy %d", size, err, envHeaderBytes+4)
	}
	raw := encodeBinaryEnvelope(t, plain)
	if len(raw) != 4+envHeaderBytes+4 {
		t.Fatalf("plain hello frame is %d bytes, want %d", len(raw), 4+envHeaderBytes+4)
	}

	// A session-bearing hello grows by exactly 1+len(name) bytes and
	// round-trips the name.
	named := &Envelope{Type: MsgHello, ClientID: 3, NumSamples: 412, Session: "line-b"}
	rawNamed := encodeBinaryEnvelope(t, named)
	if want := len(raw) + 1 + len(named.Session); len(rawNamed) != want {
		t.Fatalf("session hello frame is %d bytes, want %d", len(rawNamed), want)
	}

	// Decode the legacy frame through a binary Conn: Session must stay "".
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cb := NewConn(b, nil)
	go a.Write(raw)
	got, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Session != "" || got.NumSamples != 412 || got.ClientID != 3 {
		t.Fatalf("legacy hello decoded as %+v", got)
	}
}
