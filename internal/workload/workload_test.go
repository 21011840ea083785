package workload

import (
	"bytes"
	"math"
	"testing"
)

func TestKeyStreamDeterministic(t *testing.T) {
	a, b := NewKeyStream(1, 1000), NewKeyStream(1, 1000)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("streams diverged")
		}
	}
}

func TestKeyStreamRange(t *testing.T) {
	s := NewKeyStream(2, 100)
	for i := 0; i < 10000; i++ {
		k := s.Next()
		if k < 1 || k > 100 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestRangeForLSR(t *testing.T) {
	if r := RangeForLSR(1000, 0.4); r != 2500 {
		t.Fatalf("RangeForLSR(1000, 0.4) = %d, want 2500", r)
	}
	if r := RangeForLSR(1000, 0); r < 1<<60 {
		t.Fatal("zero LSR should give a huge range")
	}
	if r := RangeForLSR(1000, 2); r != 1000 {
		t.Fatalf("LSR clamps at 1: %d", r)
	}
	if r := RangeForLSR(0, 0.5); r != 1 {
		t.Fatalf("zero store: %d", r)
	}
}

func TestTraceRedundancyTargets(t *testing.T) {
	for _, target := range []float64{0.15, 0.5} {
		tr := GenerateTrace(TraceConfig{
			Objects:         40,
			MeanObjectBytes: 256 << 10,
			Redundancy:      target,
			Seed:            7,
		})
		got := tr.MeasuredRedundancy()
		if math.Abs(got-target) > 0.08 {
			t.Errorf("redundancy %.3f, want ≈%.2f", got, target)
		}
		if tr.TotalBytes == 0 || len(tr.Objects) != 40 {
			t.Fatal("trace empty")
		}
	}
}

func TestTraceDeterministic(t *testing.T) {
	cfg := TraceConfig{Objects: 5, MeanObjectBytes: 64 << 10, Redundancy: 0.3, Seed: 9}
	a, b := GenerateTrace(cfg), GenerateTrace(cfg)
	if a.TotalBytes != b.TotalBytes || a.DupBytes != b.DupBytes {
		t.Fatal("traces differ")
	}
	for i := range a.Objects {
		if !bytes.Equal(a.Objects[i].Data, b.Objects[i].Data) {
			t.Fatal("object data differs")
		}
	}
}

func TestTraceZeroRedundancy(t *testing.T) {
	tr := GenerateTrace(TraceConfig{Objects: 10, MeanObjectBytes: 128 << 10, Redundancy: 0, Seed: 1})
	if tr.DupBytes != 0 {
		t.Fatalf("zero-redundancy trace has %d dup bytes", tr.DupBytes)
	}
}

func TestTraceObjectSizesVary(t *testing.T) {
	tr := GenerateTrace(TraceConfig{Objects: 50, MeanObjectBytes: 256 << 10, Redundancy: 0.2, Seed: 3})
	min, max := math.MaxInt, 0
	for _, o := range tr.Objects {
		if len(o.Data) < min {
			min = len(o.Data)
		}
		if len(o.Data) > max {
			max = len(o.Data)
		}
	}
	if max < 2*min {
		t.Fatalf("object sizes too uniform: [%d, %d]", min, max)
	}
}

func TestZipfStreamSkewAndDeterminism(t *testing.T) {
	a := NewZipfStream(9, 1.2, 1<<20)
	b := NewZipfStream(9, 1.2, 1<<20)
	counts := make(map[uint64]int)
	const n = 50000
	for i := 0; i < n; i++ {
		ka, kb := a.Next(), b.Next()
		if ka != kb {
			t.Fatal("ZipfStream not deterministic per seed")
		}
		counts[ka]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// The hottest key of a Zipf(1.2) stream must dominate: far above the
	// uniform expectation, far below everything.
	if max < n/100 {
		t.Fatalf("hottest key drew %d/%d: not skewed", max, n)
	}
	if max == n {
		t.Fatal("stream collapsed to one key")
	}
	if len(counts) < 100 {
		t.Fatalf("only %d distinct keys", len(counts))
	}
}
