package compress

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary wire layout for a Sparse message (all integers little-endian):
//
//	u32 dim
//	u32 nnz
//	u8  flags        bit0: dense identity — indices 0..dim-1 are implied
//	                 and the index run is omitted
//	                 bit1: quantized — a u32 level count and f64 norm
//	                 follow, and values travel bit-packed
//	[u32 levels]     quantizer level count s (quantized only)
//	[f64 norm]       quantizer scale scalar (quantized only)
//	[nnz × u32]      indices (absent when the dense-identity bit is set)
//	nnz × f64        values (plain), or ⌈nnz·bits/8⌉ packed sign+level
//	                 integers (quantized; bits = QuantBitsFor(levels))
//
// Plain values travel as float64 so crossing the wire never changes the
// arithmetic: the accounting layer (WireBytes) keeps charging float32 per
// coordinate, matching the paper's 4-byte parameters, but the decoded
// values are the sent ones bit for bit. Quantized values are packed
// losslessly because every quantized value is exactly sign·norm·l/s (the
// Sparse.QuantLevels contract): the decoder recomputes the identical
// float64 expression the codecs use, so quantized payloads also arrive
// bit-identical — while the frame actually shrinks to the packed size
// WireBytes has always charged. The layout is
// owned here so internal/rpc (the envelope codec) and any future mmap'd
// spill format agree on it.

// sparseFlagDense marks the dense-identity layout (index run omitted).
const sparseFlagDense = 1

// sparseFlagQuant marks a packed quantized payload (levels + norm header,
// bit-packed values).
const sparseFlagQuant = 2

// sparseBinaryHeader is the fixed prefix: dim + nnz + flags.
const sparseBinaryHeader = 4 + 4 + 1

// sparseQuantHeader is the extra prefix of a quantized payload: levels + norm.
const sparseQuantHeader = 4 + 8

// maxQuantLevels bounds the level count a decoder accepts. 2^20 levels is
// already a 22-bit quantizer — far past the point where quantization beats
// shipping floats — so anything larger is a hostile or corrupt frame.
const maxQuantLevels = 1 << 20

// SparseBinarySize bounds the binary encoding of an nnz-element sparse
// vector with explicit indices (the dense-identity form is smaller, and a
// packed quantized payload is smaller beyond a few coordinates but carries
// a sparseQuantHeader-byte extension — callers adding slack of 12+ bytes,
// as the fleet harness does, bound every layout).
// Fleet-scale receivers size their frame caps and payload pools from it.
func SparseBinarySize(nnz int) int { return sparseBinaryHeader + 12*nnz }

// ErrBinaryTruncated reports a sparse binary payload shorter than its own
// header claims. It is the clean-truncation error the fault injector's
// mid-message cut must surface as.
var ErrBinaryTruncated = fmt.Errorf("%w: truncated binary payload", ErrMalformed)

// denseIdentity reports whether Indices is exactly 0..Dim-1, the shape
// NewSparseDense produces; such a message omits its index run on the wire.
func (s *Sparse) denseIdentity() bool {
	if len(s.Indices) != s.Dim {
		return false
	}
	for i, idx := range s.Indices {
		if int(idx) != i {
			return false
		}
	}
	return true
}

// quantized reports whether the message travels in the packed quantized
// layout: QuantBits set with a usable level count.
func (s *Sparse) quantized() bool {
	return s.QuantBits > 0 && s.QuantLevels >= 1 && s.QuantLevels <= maxQuantLevels
}

// quantLevel recovers the (level, sign) integer pair a quantized value was
// built from, clamping anything out of contract (non-finite values, levels
// past s) onto the grid. Zero keeps its sign bit so ±0 round-trips.
func quantLevel(v, norm float64, levels int) (l, sign uint64) {
	if math.Signbit(v) {
		sign = 1
	}
	if norm == 0 || math.IsNaN(v) {
		return 0, sign
	}
	a := math.Round(math.Abs(v) / norm * float64(levels))
	if !(a >= 0) {
		return 0, sign
	}
	if a > float64(levels) {
		a = float64(levels)
	}
	return uint64(a), sign
}

// quantValue is the decoder's inverse: the exact float64 expression the
// quantizing codecs use, so reconstruction is bit-identical to the values
// the sender held.
func quantValue(l, sign uint64, norm float64, levels int) float64 {
	val := norm * float64(l) / float64(levels)
	if sign == 1 {
		val = -val
	}
	return val
}

// BinaryWireSize returns the exact encoded size of AppendBinary's output.
func (s *Sparse) BinaryWireSize() int {
	n := sparseBinaryHeader
	if s.quantized() {
		n += sparseQuantHeader + (len(s.Values)*QuantBitsFor(s.QuantLevels)+7)/8
	} else {
		n += 8 * len(s.Values)
	}
	if !s.denseIdentity() {
		n += 4 * len(s.Indices)
	}
	return n
}

// AppendBinary appends the binary encoding of s to dst and returns the
// extended slice. It allocates only when dst lacks capacity.
func (s *Sparse) AppendBinary(dst []byte) []byte {
	dense := s.denseIdentity()
	quant := s.quantized()
	var hdr [sparseBinaryHeader + sparseQuantHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(s.Dim))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(s.Values)))
	if dense {
		hdr[8] |= sparseFlagDense
	}
	n := sparseBinaryHeader
	if quant {
		hdr[8] |= sparseFlagQuant
		binary.LittleEndian.PutUint32(hdr[9:], uint32(s.QuantLevels))
		binary.LittleEndian.PutUint64(hdr[13:], math.Float64bits(s.QuantNorm))
		n += sparseQuantHeader
	}
	dst = append(dst, hdr[:n]...)
	if !dense {
		var b [4]byte
		for _, idx := range s.Indices {
			binary.LittleEndian.PutUint32(b[:], uint32(idx))
			dst = append(dst, b[:]...)
		}
	}
	if quant {
		bits := uint(QuantBitsFor(s.QuantLevels))
		var acc uint64
		var nbits uint
		for _, v := range s.Values {
			l, sign := quantLevel(v, s.QuantNorm, s.QuantLevels)
			acc |= (l | sign<<(bits-1)) << nbits
			nbits += bits
			for nbits >= 8 {
				dst = append(dst, byte(acc))
				acc >>= 8
				nbits -= 8
			}
		}
		if nbits > 0 {
			dst = append(dst, byte(acc))
		}
		return dst
	}
	var b [8]byte
	for _, v := range s.Values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		dst = append(dst, b[:]...)
	}
	return dst
}

// EncodeBinaryTo streams the binary encoding of s to w through chunk, a
// caller-owned scratch buffer (len ≥ 16, ideally a few KB). Streaming
// through a bounded chunk instead of materialising the frame keeps a
// connection's send path allocation-free without retaining an
// update-sized buffer per peer.
func (s *Sparse) EncodeBinaryTo(w io.Writer, chunk []byte) error {
	if len(chunk) < 16 {
		return fmt.Errorf("compress: EncodeBinaryTo scratch of %d bytes, need >= 16", len(chunk))
	}
	dense := s.denseIdentity()
	quant := s.quantized()
	binary.LittleEndian.PutUint32(chunk[0:], uint32(s.Dim))
	binary.LittleEndian.PutUint32(chunk[4:], uint32(len(s.Values)))
	chunk[8] = 0
	if dense {
		chunk[8] |= sparseFlagDense
	}
	hdr := sparseBinaryHeader
	if quant {
		chunk[8] |= sparseFlagQuant
		// The combined header (21 bytes) can exceed the 16-byte scratch
		// floor, so flush the fixed part before building the extension.
		if _, err := w.Write(chunk[:sparseBinaryHeader]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(chunk[0:], uint32(s.QuantLevels))
		binary.LittleEndian.PutUint64(chunk[4:], math.Float64bits(s.QuantNorm))
		hdr = sparseQuantHeader
	}
	if _, err := w.Write(chunk[:hdr]); err != nil {
		return err
	}
	if !dense {
		for off := 0; off < len(s.Indices); {
			n := len(s.Indices) - off
			if m := len(chunk) / 4; n > m {
				n = m
			}
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint32(chunk[4*i:], uint32(s.Indices[off+i]))
			}
			if _, err := w.Write(chunk[:4*n]); err != nil {
				return err
			}
			off += n
		}
	}
	if quant {
		bits := uint(QuantBitsFor(s.QuantLevels))
		var acc uint64
		var nbits uint
		fill := 0
		for _, v := range s.Values {
			l, sign := quantLevel(v, s.QuantNorm, s.QuantLevels)
			acc |= (l | sign<<(bits-1)) << nbits
			nbits += bits
			for nbits >= 8 {
				chunk[fill] = byte(acc)
				acc >>= 8
				nbits -= 8
				fill++
				if fill == len(chunk) {
					if _, err := w.Write(chunk); err != nil {
						return err
					}
					fill = 0
				}
			}
		}
		if nbits > 0 {
			chunk[fill] = byte(acc)
			fill++
		}
		if fill > 0 {
			if _, err := w.Write(chunk[:fill]); err != nil {
				return err
			}
		}
		return nil
	}
	for off := 0; off < len(s.Values); {
		n := len(s.Values) - off
		if m := len(chunk) / 8; n > m {
			n = m
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(chunk[8*i:], math.Float64bits(s.Values[off+i]))
		}
		if _, err := w.Write(chunk[:8*n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// DecodeBinaryInto decodes a sparse binary payload produced by
// AppendBinary into s, reusing s's slices when capacity allows (the
// zero-allocation receive path). data must be exactly one encoded
// message. The declared nnz is validated against len(data) before any
// allocation, so a corrupt count cannot force an oversized allocation;
// structural validation beyond shape (index bounds versus the receiver's
// model) stays with Sparse.Validate.
func (s *Sparse) DecodeBinaryInto(data []byte) error {
	if len(data) < sparseBinaryHeader {
		return ErrBinaryTruncated
	}
	dim := binary.LittleEndian.Uint32(data[0:])
	nnz := binary.LittleEndian.Uint32(data[4:])
	flags := data[8]
	rest := data[sparseBinaryHeader:]

	if dim > math.MaxInt32 {
		return fmt.Errorf("%w: dim %d overflows int32", ErrMalformed, dim)
	}
	dense := flags&sparseFlagDense != 0
	quant := flags&sparseFlagQuant != 0

	levels, bits := 0, 0
	var norm float64
	if quant {
		if len(rest) < sparseQuantHeader {
			return ErrBinaryTruncated
		}
		levels = int(binary.LittleEndian.Uint32(rest[0:]))
		norm = math.Float64frombits(binary.LittleEndian.Uint64(rest[4:]))
		rest = rest[sparseQuantHeader:]
		if levels < 1 || levels > maxQuantLevels {
			return fmt.Errorf("%w: quantizer level count %d outside [1, %d]",
				ErrMalformed, levels, maxQuantLevels)
		}
		if math.IsNaN(norm) || math.IsInf(norm, 0) || norm < 0 {
			return fmt.Errorf("%w: quantizer norm %v not finite and non-negative", ErrMalformed, norm)
		}
		bits = QuantBitsFor(levels)
	}

	// Exact-length validation before any allocation: a lying count can
	// neither force an oversized allocation nor smuggle trailing bytes.
	var want uint64
	if quant {
		want = (uint64(nnz)*uint64(bits) + 7) / 8
	} else {
		want = uint64(nnz) * 8
	}
	if !dense {
		want += uint64(nnz) * 4
	}
	if want != uint64(len(rest)) {
		if want > uint64(len(rest)) {
			return ErrBinaryTruncated
		}
		return fmt.Errorf("%w: %d trailing bytes after %d coordinates",
			ErrMalformed, uint64(len(rest))-want, nnz)
	}
	if dense && nnz != dim {
		return fmt.Errorf("%w: dense flag with nnz %d != dim %d", ErrMalformed, nnz, dim)
	}

	n := int(nnz)
	s.Dim = int(dim)
	s.QuantBits, s.QuantLevels, s.QuantNorm = 0, 0, 0
	if quant {
		s.QuantBits, s.QuantLevels, s.QuantNorm = bits, levels, norm
	}
	if cap(s.Indices) < n {
		s.Indices = make([]int32, n)
	} else {
		s.Indices = s.Indices[:n]
	}
	if cap(s.Values) < n {
		s.Values = make([]float64, n)
	} else {
		s.Values = s.Values[:n]
	}
	if dense {
		for i := range s.Indices {
			s.Indices[i] = int32(i)
		}
	} else {
		for i := range s.Indices {
			s.Indices[i] = int32(binary.LittleEndian.Uint32(rest[4*i:]))
		}
		rest = rest[4*n:]
	}
	if quant {
		b := uint(bits)
		mask := uint64(1)<<(b-1) - 1
		var acc uint64
		var nbits uint
		pos := 0
		for i := range s.Values {
			for nbits < b {
				acc |= uint64(rest[pos]) << nbits
				pos++
				nbits += 8
			}
			chunkBits := acc & (uint64(1)<<b - 1)
			acc >>= b
			nbits -= b
			l := chunkBits & mask
			sign := chunkBits >> (b - 1)
			if l > uint64(levels) {
				return fmt.Errorf("%w: quantized level %d exceeds level count %d",
					ErrMalformed, l, levels)
			}
			s.Values[i] = quantValue(l, sign, norm, levels)
		}
		return nil
	}
	for i := range s.Values {
		s.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	return nil
}
