package wanopt

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/vclock"
	"repro/internal/workload"
)

// recordingIndex wraps an Index and records whether each Get found its
// fingerprint — Process's match decision for each chunk, in chunk order —
// and counts the Puts.
type recordingIndex struct {
	Index
	found []bool
	puts  int
}

func (r *recordingIndex) Get(fp []byte) ([]byte, bool, error) {
	ref, ok, err := r.Index.Get(fp)
	r.found = append(r.found, ok)
	return ref, ok, err
}

func (r *recordingIndex) Put(fp, ref []byte) error {
	r.puts++
	return r.Index.Put(fp, ref)
}

// rebuild reconstructs one object at a receiver from the match decisions
// Process made for it, as §8's destination does: a chunk Process did not
// match arrives as a literal, which the receiver caches by fingerprint in
// chunks; a matched chunk arrives as a reference, which must resolve
// against that cache. It returns the object and its on-wire bytes.
func rebuild(o *Optimizer, data []byte, found []bool, chunks map[[FingerprintBytes]byte][]byte) ([]byte, int, error) {
	split := o.split(data)
	if len(split) != len(found) {
		return nil, 0, fmt.Errorf("%d chunks, %d index lookups", len(split), len(found))
	}
	var out []byte
	wire := 0
	for i, chunk := range split {
		fp := Fingerprint(chunk)
		if !found[i] {
			chunks[fp] = chunk
			out = append(out, chunk...)
			wire += len(chunk)
			continue
		}
		cached, ok := chunks[fp]
		if !ok {
			return nil, 0, fmt.Errorf("chunk %d references %x, which the receiver never got", i, fp)
		}
		out = append(out, cached...)
		wire += RefBytes
	}
	return out, wire, nil
}

func TestEndToEndReconstruction(t *testing.T) {
	// The paper's §8 pipeline: compress each object against the sender's
	// fingerprint index, ship literals and references, reconstruct at the
	// receiver — every object must come back byte-identical, and the
	// bytes shipped must be what Process reports.
	idx := &recordingIndex{Index: newMapIndex()}
	o := newOptimizer(t, idx, vclock.New(), 100)
	chunks := make(map[[FingerprintBytes]byte][]byte)
	tr := workload.GenerateTrace(workload.TraceConfig{
		Objects: 20, MeanObjectBytes: 256 << 10, Redundancy: 0.5, Seed: 21,
	})
	var wire, raw, matched int
	for _, obj := range tr.Objects {
		idx.found = idx.found[:0]
		res, err := o.Process(obj.Data)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := rebuild(o, obj.Data, idx.found, chunks)
		if err != nil {
			t.Fatalf("object %d: %v", obj.ID, err)
		}
		if !bytes.Equal(got, obj.Data) {
			t.Fatalf("object %d: reconstruction mismatch (%d vs %d bytes)", obj.ID, len(got), len(obj.Data))
		}
		if n != res.CompressedBytes {
			t.Fatalf("object %d: %d bytes shipped, Process reports %d", obj.ID, n, res.CompressedBytes)
		}
		wire += n
		raw += len(obj.Data)
		matched += res.Matched
	}
	ratio := float64(raw) / float64(wire)
	t.Logf("wire compression %.2fx over %d objects (%d cached chunks, %d matched)", ratio, len(tr.Objects), len(chunks), matched)
	if ratio < 1.3 {
		t.Fatalf("wire compression %.2f too low for a 50%% redundant trace", ratio)
	}
}

// TestReconstructUnknownRef checks that the rebuild catches a match
// decision on a chunk the receiver never got: an index that claims every
// fingerprint makes Process ship only references.
func TestReconstructUnknownRef(t *testing.T) {
	idx := &recordingIndex{Index: everyIndex{}}
	o := newOptimizer(t, idx, vclock.New(), 100)
	data := bytes.Repeat([]byte("no-such-chunk"), 4096)
	if _, err := o.Process(data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rebuild(o, data, idx.found, make(map[[FingerprintBytes]byte][]byte)); err == nil {
		t.Fatal("a reference to a chunk the receiver never got rebuilt")
	}
}

// everyIndex claims to hold every fingerprint.
type everyIndex struct{}

func (everyIndex) Put(fp, ref []byte) error            { return nil }
func (everyIndex) Get(fp []byte) ([]byte, bool, error) { return nil, true, nil }

// TestReconstructEmpty checks that an empty object is zero chunks: it
// ships nothing, the index sees no lookup and no insert, and it rebuilds
// empty.
func TestReconstructEmpty(t *testing.T) {
	idx := &recordingIndex{Index: newMapIndex()}
	o := newOptimizer(t, idx, vclock.New(), 100)
	res, err := o.Process(nil)
	if err != nil || res.CompressedBytes != 0 || res.Chunks != 0 {
		t.Fatalf("empty object: %+v, %v", res, err)
	}
	if len(idx.found) != 0 || idx.puts != 0 {
		t.Fatalf("empty object: %d index lookups, %d inserts; want none", len(idx.found), idx.puts)
	}
	out, n, err := rebuild(o, nil, idx.found, make(map[[FingerprintBytes]byte][]byte))
	if err != nil || len(out) != 0 || n != 0 {
		t.Fatalf("empty object rebuilt to %d bytes, %d on the wire: %v", len(out), n, err)
	}
}
