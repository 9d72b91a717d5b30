package rpc

import "testing"

// Codec microbenchmarks on the two hot-path messages (a sparse client
// update and a dense model broadcast), both directions. `make bench-wire`
// runs these; BENCH_6.json records them against the retired gob codec.

func benchSend(b *testing.B, conn *Conn, e *Envelope) {
	b.Helper()
	size, err := e.wirePayloadSize()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 + size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.Send(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireSendUpdate(b *testing.B) {
	update, _ := allocEnvelopes()
	benchSend(b, NewConn(&byteConn{}, nil), update)
}

func BenchmarkWireSendModel(b *testing.B) {
	_, model := allocEnvelopes()
	benchSend(b, NewConn(&byteConn{}, nil), model)
}

func BenchmarkWireRecvUpdate(b *testing.B) {
	update, _ := allocEnvelopes()
	raw := encodeBinaryEnvelope(b, update)
	conn := NewConn(&byteConn{r: &repeatReader{data: raw}}, nil)
	var env Envelope
	if err := conn.RecvInto(&env); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.RecvInto(&env); err != nil {
			b.Fatal(err)
		}
	}
}
