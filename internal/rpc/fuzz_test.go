package rpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"adafl/internal/compress"
)

// byteConn adapts a byte buffer into a net.Conn so corrupted wire data can
// be fed straight into Conn.Recv. Writes are discarded, deadlines are
// no-ops.
type byteConn struct {
	r io.Reader
}

func (b *byteConn) Read(p []byte) (int, error)       { return b.r.Read(p) }
func (b *byteConn) Write(p []byte) (int, error)      { return len(p), nil }
func (b *byteConn) Close() error                     { return nil }
func (b *byteConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (b *byteConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (b *byteConn) SetDeadline(time.Time) error      { return nil }
func (b *byteConn) SetReadDeadline(time.Time) error  { return nil }
func (b *byteConn) SetWriteDeadline(time.Time) error { return nil }

// fixtureEnvelopes covers every message type with its relevant fields
// populated.
func fixtureEnvelopes() []*Envelope {
	return []*Envelope{
		{Type: MsgHello, ClientID: 3, NumSamples: 412},
		{Type: MsgModel, Round: 7, Params: []float64{0.5, -1.25, 3}, GlobalDelta: []float64{1e-3, -2e-3}},
		{Type: MsgScore, ClientID: 2, Round: 7, Score: 0.8125},
		{Type: MsgSelect, Round: 7, Ratio: 12.5},
		{Type: MsgSelect, ClientID: 4, Round: 7, Ratio: 20, Codec: "dadaquant", Levels: 15},
		{Type: MsgUpdate, ClientID: 1, Round: 7, Update: &compress.Sparse{Dim: 8, Indices: []int32{0, 3, 7}, Values: []float64{1, -2, 0.5}}},
		{Type: MsgShutdown, Info: "done: 30 rounds"},
		{Type: MsgWelcome, Round: 4},
		{Type: MsgPing, ClientID: 2, Round: 9, NumSamples: 118},
		{Type: MsgEdgeHello, ClientID: 1, NumSamples: 230, Info: "127.0.0.1:9021", Region: "eu-south"},
		{Type: MsgEdgePartial, ClientID: 1, Round: 9, NumSamples: 230, WeightSum: 230, Params: []float64{0.25, -1.5, 1e-9}},
		{Type: MsgReroute, ClientID: 17, Round: 3, Info: "127.0.0.1:9022"},
		{Type: MsgHello, ClientID: 8, NumSamples: 96, Session: "factory-floor"},
		{Type: MsgAsyncPull, ClientID: 6},
		{Type: MsgAsyncPush, ClientID: 6, Round: 12, Update: &compress.Sparse{Dim: 8, Indices: []int32{1, 6}, Values: []float64{-0.75, 2}}},
	}
}

// FuzzEnvelopeDecode feeds arbitrary (and, via the corpus, subtly
// corrupted/truncated) byte streams through both receive paths in
// lockstep — the allocating Recv and the scratch-reusing RecvInto — and
// requires error-not-panic behaviour plus agreement frame by frame: both
// paths fail together, or both decode a message that re-encodes to the
// same bytes. A scratch buffer that leaks state from one message into the
// next shows up as a disagreement. This is the exact failure surface the
// fault injector's mid-message cut produces on a live socket.
func FuzzEnvelopeDecode(f *testing.F) {
	for _, e := range fixtureEnvelopes() {
		raw := encodeBinaryEnvelope(f, e)
		f.Add(raw)
		// Truncations: a cut mid-length-prefix, mid-header or mid-body,
		// and one byte short.
		for _, cut := range []int{1, len(raw) / 3, len(raw) - 1} {
			if cut > 0 && cut < len(raw) {
				f.Add(raw[:cut])
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0x7f}, 64))
	// A stream of two frames whose second is shorter than the first, so
	// the scratch path must not keep the first frame's tail.
	f.Add(append(encodeBinaryEnvelope(f, &Envelope{Type: MsgModel, Params: make([]float64, 64), GlobalDelta: []float64{1}}),
		encodeBinaryEnvelope(f, &Envelope{Type: MsgModel, Params: []float64{2}})...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		fresh := NewConn(&byteConn{r: bytes.NewReader(data)}, nil)
		scratch := NewConn(&byteConn{r: bytes.NewReader(data)}, nil)
		var env Envelope
		// Bound the loop so a stream of tiny valid messages cannot spin
		// for long.
		for i := 0; i < 64; i++ {
			got, err := fresh.Recv()
			errInto := scratch.RecvInto(&env)
			if (err == nil) != (errInto == nil) {
				t.Fatalf("message %d: Recv error %v, RecvInto error %v", i, err, errInto)
			}
			if err != nil {
				return // error, not panic: exactly what we want
			}
			a, errA := reencode(got)
			b, errB := reencode(&env)
			if (errA == nil) != (errB == nil) || !bytes.Equal(a, b) {
				t.Fatalf("message %d: receive paths disagree:\n Recv     %x (%v)\n RecvInto %x (%v)", i, a, errA, b, errB)
			}
		}
	})
}

// reencode renders a decoded envelope back into its wire frame.
func reencode(e *Envelope) ([]byte, error) {
	cc := &captureConn{}
	err := NewConn(cc, nil).Send(e)
	return cc.buf.Bytes(), err
}

// FuzzWireDecode: frames of every message type — plus truncations, bit
// flips and hostile length prefixes — must decode or error, never panic,
// never allocate from a corrupt declared length, on both the allocating
// and the scratch-reuse receive paths, and under a tight size cap.
func FuzzWireDecode(f *testing.F) {
	for _, e := range fixtureEnvelopes() {
		raw := encodeBinaryEnvelope(f, e)
		f.Add(raw)
		// Truncations: mid-length-prefix, mid-header and mid-body.
		for _, cut := range []int{2, 4, 4 + envHeaderBytes/2, len(raw) - 1} {
			if cut > 0 && cut < len(raw) {
				f.Add(raw[:cut])
			}
		}
		// A hostile prefix: maximum declared length over a tiny body.
		hostile := append([]byte(nil), raw...)
		hostile[0], hostile[1], hostile[2], hostile[3] = 0xff, 0xff, 0xff, 0xff
		f.Add(hostile)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})             // zero-length payload
	f.Add([]byte{0x0a, 0x00, 0x00, 0x00, 0xff, 0xff}) // bad type, cut header

	// Hostile edge-federation frames: length fields that lie about the
	// body. Offsets: 4-byte frame prefix, 10-byte header, then the typed
	// body (EdgePartial: numSamples@14 weightSum@18 nParams@26 params@30;
	// EdgeHello: numSamples@14 infoLen@18; Reroute: infoLen@14).
	for _, e := range fixtureEnvelopes() {
		raw := encodeBinaryEnvelope(f, e)
		switch e.Type {
		case MsgEdgePartial:
			mut := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(mut[26:], 0xffffffff) // declared params >> body
			f.Add(mut)
			f.Add(raw[:len(raw)-5]) // truncated mid-params
		case MsgEdgeHello:
			mut := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(mut[18:], 0x7fffffff) // info length lies
			f.Add(mut)
			f.Add(raw[:len(raw)-2]) // truncated mid-region
		case MsgReroute:
			mut := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(mut[14:], 0xfffffff0) // address length lies
			f.Add(mut)
		case MsgSelect:
			if e.Codec == "" {
				continue
			}
			// Hostile negotiation frames (ratio@14, codecLen@22,
			// levels after the name): a codec length that lies about
			// the body, a NaN ratio, and out-of-range level counts.
			mut := append([]byte(nil), raw...)
			mut[22] = 0xff // declared codec name overruns the body
			f.Add(mut)
			mut = append([]byte(nil), raw...)
			binary.LittleEndian.PutUint64(mut[14:], math.Float64bits(math.NaN()))
			f.Add(mut)
			mut = append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(mut[23+len(e.Codec):], 0xffffffff) // negative levels
			f.Add(mut)
			mut = append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(mut[23+len(e.Codec):], 0x7fffffff) // absurd levels
			f.Add(mut)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		c := NewConn(&byteConn{r: bytes.NewReader(data)}, nil)
		for i := 0; i < 64; i++ {
			e, err := c.Recv()
			if err != nil {
				break // error, not panic
			}
			// Invariants a successful decode must uphold.
			if e.Update != nil && len(e.Update.Indices) != len(e.Update.Values) {
				t.Fatalf("decoded sparse with %d indices, %d values", len(e.Update.Indices), len(e.Update.Values))
			}
		}
		// Scratch-reuse path: same stream through RecvInto.
		into := NewConn(&byteConn{r: bytes.NewReader(data)}, nil)
		var env Envelope
		for i := 0; i < 64; i++ {
			if err := into.RecvInto(&env); err != nil {
				break
			}
		}
		// Tight cap: the declared frame size must be judged before any
		// allocation or payload read.
		capped := NewConn(&byteConn{r: bytes.NewReader(data)}, nil)
		capped.SetMaxMessage(1 << 12)
		for i := 0; i < 64; i++ {
			if _, err := capped.Recv(); err != nil {
				return
			}
		}
	})
}

// TestEnvelopeDecodeCorruptedPayloads locks in the fuzz property for a
// deterministic set of corruptions of every message type's binary frame
// so `go test` (without -fuzz) still exercises the surface.
func TestEnvelopeDecodeCorruptedPayloads(t *testing.T) {
	for _, e := range fixtureEnvelopes() {
		raw := encodeBinaryEnvelope(t, e)
		corruptions := [][]byte{
			raw[:len(raw)/2], // truncated mid-message
			raw[1:],          // missing first length-prefix byte
			append(bytes.Repeat([]byte{0xee}, 7), raw...), // garbage prefix
		}
		// Single-byte flips across the whole message.
		for i := 0; i < len(raw); i += 3 {
			mut := append([]byte(nil), raw...)
			mut[i] ^= 0x55
			corruptions = append(corruptions, mut)
		}
		for _, data := range corruptions {
			c := NewConn(&byteConn{r: bytes.NewReader(data)}, nil)
			for i := 0; i < 64; i++ {
				got, err := c.Recv()
				if err != nil {
					break // error-not-panic
				}
				// A flipped byte may still decode; the result must at
				// least be a structurally consistent envelope.
				if got.Update != nil && len(got.Update.Indices) != len(got.Update.Values) {
					t.Fatalf("type %v: decoded sparse with %d indices, %d values",
						e.Type, len(got.Update.Indices), len(got.Update.Values))
				}
			}
		}
	}
}
