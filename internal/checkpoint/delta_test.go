package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// writeEpoch is a test helper: one Write with error fatal.
func writeEpoch(t *testing.T, w *DeltaWriter, secs []Section) (uint64, int64) {
	t.Helper()
	epoch, n, err := w.Write(secs)
	if err != nil {
		t.Fatalf("delta write: %v", err)
	}
	return epoch, n
}

func sectionsEqual(t *testing.T, got, want []Section) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d sections, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("section %d name %q, want %q", i, got[i].Name, want[i].Name)
		}
		if !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("section %q data mismatch (%d vs %d bytes)", want[i].Name, len(got[i].Data), len(want[i].Data))
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{ChunkSize: 64, RebaseEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	vec := make([]byte, 64*40)
	rng.Read(vec)
	meta := []byte(`{"version":1}`)

	secs := []Section{{Name: "meta", Data: meta}, {Name: "global", Data: vec}}
	e1, full := writeEpoch(t, w, secs)
	if e1 != 1 {
		t.Fatalf("first epoch %d", e1)
	}

	// Touch two chunks of the vector; the second epoch must be far
	// smaller than the first and still reconstruct exactly.
	vec2 := append([]byte(nil), vec...)
	vec2[10] ^= 0xff
	vec2[64*30+3] ^= 0xff
	meta2 := []byte(`{"version":2}`)
	secs2 := []Section{{Name: "meta", Data: meta2}, {Name: "global", Data: vec2}}
	e2, delta := writeEpoch(t, w, secs2)
	if e2 != 2 {
		t.Fatalf("second epoch %d", e2)
	}
	if delta >= full/2 {
		t.Fatalf("two-chunk delta wrote %d bytes vs %d full", delta, full)
	}

	r := NewDeltaReader(dir, 0)
	latest, got, err := r.ReadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if latest != 2 {
		t.Fatalf("latest %d", latest)
	}
	sectionsEqual(t, got, secs2)
}

func TestDeltaSectionGrowthAndShrink(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{ChunkSize: 32, RebaseEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	a := bytes.Repeat([]byte{7}, 100)
	writeEpoch(t, w, []Section{{Name: "s", Data: a}})
	grown := append(append([]byte(nil), a...), bytes.Repeat([]byte{9}, 60)...)
	writeEpoch(t, w, []Section{{Name: "s", Data: grown}})
	r := NewDeltaReader(dir, 0)
	_, got, err := r.ReadLatest()
	if err != nil {
		t.Fatal(err)
	}
	sectionsEqual(t, got, []Section{{Name: "s", Data: grown}})

	shrunk := grown[:40]
	writeEpoch(t, w, []Section{{Name: "s", Data: shrunk}})
	_, got, err = NewDeltaReader(dir, 0).ReadLatest()
	if err != nil {
		t.Fatal(err)
	}
	sectionsEqual(t, got, []Section{{Name: "s", Data: shrunk}})
}

func TestDeltaRebaseAndGC(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{ChunkSize: 64, RebaseEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]byte, 64*16)
	rand.New(rand.NewSource(2)).Read(vec)
	for i := 0; i < 10; i++ {
		vec[i*64] = byte(i) // one chunk changes per epoch
		writeEpoch(t, w, []Section{{Name: "v", Data: vec}})
	}
	epochs, err := DeltaEpochs(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 9 is the latest rebase (epochs 1, 5, 9 rebase with
	// RebaseEvery=4); epoch 10 refs only 9, so GC must have pruned
	// everything except {9, 10}.
	if len(epochs) != 2 || epochs[0] != 9 || epochs[1] != 10 {
		t.Fatalf("after GC epochs = %v, want [9 10]", epochs)
	}
	if _, err := AuditDelta(dir); err != nil {
		t.Fatalf("audit after GC: %v", err)
	}
	_, got, err := NewDeltaReader(dir, 0).ReadLatest()
	if err != nil {
		t.Fatal(err)
	}
	sectionsEqual(t, got, []Section{{Name: "v", Data: vec}})
}

// TestDeltaGCKeepsTransitiveSources pins GC against the auditor. Epoch 3
// references epoch 2 for a chunk epoch 2 holds inline, and epoch 2 in
// turn references epoch 1. Reading epoch 3 needs only epoch 2, but an
// epoch left on disk must resolve in full, so GC has to keep epoch 1 too.
func TestDeltaGCKeepsTransitiveSources(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{ChunkSize: 64, RebaseEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]byte, 2*64)
	writeEpoch(t, w, []Section{{Name: "v", Data: vec}}) // 1: both chunks inline
	vec[64] = 1
	writeEpoch(t, w, []Section{{Name: "v", Data: vec}}) // 2: chunk 0 → 1, chunk 1 inline
	vec[0] = 1
	writeEpoch(t, w, []Section{{Name: "v", Data: vec}}) // 3: chunk 0 inline, chunk 1 → 2

	if epochs, _ := DeltaEpochs(dir); len(epochs) != 3 {
		t.Fatalf("after GC epochs = %v, want [1 2 3]", epochs)
	}
	if _, err := AuditDelta(dir); err != nil {
		t.Fatalf("audit after GC: %v", err)
	}

	// Once epoch 4 rewrites every chunk, nothing older is reachable.
	vec[0], vec[64] = 2, 2
	writeEpoch(t, w, []Section{{Name: "v", Data: vec}}) // 4: both chunks inline
	if epochs, _ := DeltaEpochs(dir); len(epochs) != 1 || epochs[0] != 4 {
		t.Fatalf("after GC epochs = %v, want [4]", epochs)
	}
	if _, err := AuditDelta(dir); err != nil {
		t.Fatalf("audit after GC: %v", err)
	}
}

func TestDeltaWriterResumeRebases(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{ChunkSize: 64, RebaseEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]byte, 64*8)
	writeEpoch(t, w, []Section{{Name: "v", Data: vec}})
	writeEpoch(t, w, []Section{{Name: "v", Data: vec}})

	// A reopened writer must not trust the unread chain: it continues the
	// numbering but writes a full epoch, after which GC prunes the old
	// chain entirely.
	w2, err := NewDeltaWriter(dir, DeltaOptions{ChunkSize: 64, RebaseEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Epoch() != 2 {
		t.Fatalf("resumed epoch %d", w2.Epoch())
	}
	e3, _ := writeEpoch(t, w2, []Section{{Name: "v", Data: vec}})
	if e3 != 3 {
		t.Fatalf("post-resume epoch %d", e3)
	}
	epochs, _ := DeltaEpochs(dir)
	if len(epochs) != 1 || epochs[0] != 3 {
		t.Fatalf("epochs after resume rebase = %v, want [3]", epochs)
	}
	if _, err := AuditDelta(dir); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaAuditDetectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{ChunkSize: 64, RebaseEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]byte, 64*8)
	rand.New(rand.NewSource(3)).Read(vec)
	writeEpoch(t, w, []Section{{Name: "v", Data: vec}})
	vec[5] ^= 1
	writeEpoch(t, w, []Section{{Name: "v", Data: vec}})
	if _, err := AuditDelta(dir); err != nil {
		t.Fatalf("clean chain: %v", err)
	}

	// Layer 1: a plain bit flip in the oldest epoch's blob must fail the
	// frame CRC before any chunk logic runs.
	path := filepath.Join(dir, deltaFileName(1))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b := append([]byte(nil), orig...)
	b[len(b)-3] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := AuditDelta(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("audit of bit-flipped chain: %v", err)
	}
	if _, _, err := NewDeltaReader(dir, 0).ReadLatest(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read through bit-flipped reference: %v", err)
	}

	// Layer 2: the same flip with a recomputed frame CRC — the frame now
	// verifies, so the SHA-256 chunk check must catch it instead.
	b = append([]byte(nil), orig...)
	b[len(b)-3] ^= 0x40
	crc := crc32.Checksum(b[headerLen:], castagnoli)
	binary.LittleEndian.PutUint32(b[20:24], crc)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := AuditDelta(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("audit of hash-corrupted chain: %v", err)
	}
	if _, _, err := NewDeltaReader(dir, 0).ReadLatest(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read through hash-corrupted reference: %v", err)
	}
}

func TestDeltaAuditDetectsDanglingRef(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{ChunkSize: 64, RebaseEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]byte, 64*8)
	writeEpoch(t, w, []Section{{Name: "v", Data: vec}})
	writeEpoch(t, w, []Section{{Name: "v", Data: vec}})
	if err := os.Remove(filepath.Join(dir, deltaFileName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := AuditDelta(dir); err == nil {
		t.Fatal("audit accepted a dangling epoch reference")
	}
}

func TestF64SectionRoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -2.25, 1e300, -1e-300}
	b := AppendF64s(nil, vals)
	got, err := F64sFromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("f64 round trip %v != %v", got[i], vals[i])
		}
	}
	if _, err := F64sFromBytes(b[:len(b)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated f64 section: %v", err)
	}
}

// TestDeltaSteadyStateBytes pins the headline economy claim at the
// package level: with sparse per-epoch changes, steady-state delta
// epochs must cost well under 30% of an equivalent full snapshot.
func TestDeltaSteadyStateBytes(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{ChunkSize: 4096, RebaseEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]byte, 1<<20) // 1 MiB model section
	rand.New(rand.NewSource(4)).Read(vec)
	_, full := writeEpoch(t, w, []Section{{Name: "global", Data: vec}})
	var deltaTotal int64
	const epochs = 8
	for i := 0; i < epochs; i++ {
		// A localized sparse round: ~5% of the vector, contiguous.
		off := (i % 16) * (len(vec) / 20)
		for j := 0; j < len(vec)/20; j++ {
			vec[off+j] ^= byte(i + 1)
		}
		_, n := writeEpoch(t, w, []Section{{Name: "global", Data: vec}})
		deltaTotal += n
	}
	mean := deltaTotal / epochs
	if mean > full*30/100 {
		t.Fatalf("steady-state delta epochs average %d bytes, above 30%% of full snapshot %d", mean, full)
	}
}
