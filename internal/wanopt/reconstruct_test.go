package wanopt

import (
	"bytes"
	"testing"

	"repro/internal/vclock"
	"repro/internal/workload"
)

func TestEndToEndReconstruction(t *testing.T) {
	// The paper's §8 pipeline: compress each object against the sender's
	// fingerprint index, ship tokens, reconstruct at the receiver — every
	// object must come back byte-identical.
	clock := vclock.New()
	o := newOptimizer(t, newMapIndex(), clock, 100)
	rx := NewReceiver()
	tr := workload.GenerateTrace(workload.TraceConfig{
		Objects: 20, MeanObjectBytes: 256 << 10, Redundancy: 0.5, Seed: 21,
	})
	var wire, raw int
	for _, obj := range tr.Objects {
		// Encode BEFORE Process updates the index (a referenced chunk
		// must already have been shipped as a literal).
		tokens := o.Encode(obj.Data)
		got, err := rx.Reconstruct(tokens)
		if err != nil {
			t.Fatalf("object %d: %v", obj.ID, err)
		}
		if !bytes.Equal(got, obj.Data) {
			t.Fatalf("object %d: reconstruction mismatch (%d vs %d bytes)",
				obj.ID, len(got), len(obj.Data))
		}
		for _, tok := range tokens {
			wire += tok.WireBytes()
		}
		raw += len(obj.Data)
		if _, err := o.Process(obj.Data); err != nil {
			t.Fatal(err)
		}
	}
	if rx.ChunkCount() == 0 {
		t.Fatal("receiver cached no chunks")
	}
	ratio := float64(raw) / float64(wire)
	t.Logf("wire compression %.2fx over %d objects (%d cached chunks)", ratio, len(tr.Objects), rx.ChunkCount())
	if ratio < 1.3 {
		t.Fatalf("wire compression %.2f too low for a 50%% redundant trace", ratio)
	}
	// Token accounting must agree with Process's compression accounting
	// to within the per-object boundary effects.
	st := o.stats
	if st.BytesOut <= 0 || float64(wire) > float64(st.BytesOut)*1.02 || float64(wire) < float64(st.BytesOut)*0.98 {
		t.Fatalf("token wire bytes %d disagree with Process BytesOut %d", wire, st.BytesOut)
	}
}

func TestReconstructUnknownRef(t *testing.T) {
	rx := NewReceiver()
	if _, err := rx.Reconstruct([]Token{{Ref: []byte("no-such-chunk-fp-123")}}); err == nil {
		t.Fatal("unknown reference accepted")
	}
}

func TestReconstructEmpty(t *testing.T) {
	rx := NewReceiver()
	out, err := rx.Reconstruct(nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty stream: %v %v", out, err)
	}
}

func TestTokenWireBytes(t *testing.T) {
	if (Token{Ref: make([]byte, FingerprintBytes)}).WireBytes() != RefBytes {
		t.Fatal("ref token size")
	}
	if (Token{Literal: make([]byte, 100)}).WireBytes() != 100 {
		t.Fatal("literal token size")
	}
}

func TestEncodeDoesNotMutateIndex(t *testing.T) {
	clock := vclock.New()
	idx := newMapIndex()
	o := newOptimizer(t, idx, clock, 100)
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 13)
	}
	o.Encode(data)
	if len(idx.m) != 0 {
		t.Fatalf("Encode inserted %d fingerprints", len(idx.m))
	}
	if clock.Now() != 0 {
		t.Fatal("Encode charged virtual time")
	}
}
