package main

import (
	"slices"
	"time"
)

// The host-speed probe. On a shared host the speed of a core moves by tens
// of percent over seconds to minutes, mostly with how much of the shared
// last-level cache and memory bandwidth other tenants take, and a run's
// wall figures move with it. A run therefore times a fixed, memory-bound
// kernel that belongs to the benchmark, never to the program, before and
// after every measured segment, and scales its wall metrics to the speed
// at which that kernel takes probeNominal. A change to the program leaves
// the probe as it is, so the scaled figures move with the program and much
// less with the host. The unscaled figures are in the report.
const (
	// probeWords sizes the probe's table: 32 MB, far beyond a core's L2
	// and a share of the L3 of the kind the store's structures occupy.
	probeWords = 1 << 22
	// probeSteps is the length of one probe.
	probeSteps = 1 << 13
	// probeNominal is about the probe's median duration on the 2-CPU
	// reference host (Xeon, 2 GHz), whose probe read 2.5–5 ms as other
	// tenants' load changed. It only sets the unit of the scaled figures.
	probeNominal = 3 * time.Millisecond
)

var (
	probeTable = newProbeTable()
	probeSink  uint64
)

func newProbeTable() []uint64 {
	t := make([]uint64, probeWords)
	for i := range t {
		t[i] = probeMix(uint64(i))
	}
	return t
}

// probeMix is the SplitMix64 finalizer, kept here so that the probe never
// changes with the program's own hash code.
func probeMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// probe times one pass of the kernel: a chain of dependent loads, each from
// a random slot of the whole table and then of its first 256 KB.
func probe() time.Duration {
	t0 := time.Now()
	x := uint64(1)
	for range probeSteps {
		x = probeMix(x ^ probeTable[x&(probeWords-1)])
		x = probeMix(x + probeTable[(x>>7)&(1<<15-1)])
	}
	probeSink += x
	return time.Since(t0)
}

// hostSpeed is the run's host speed relative to the reference host: the
// nominal probe time over the median probe time. Scaled wall rates are
// rates ÷ hostSpeed, scaled wall times are times × hostSpeed.
func hostSpeed(probes []time.Duration) float64 {
	s := slices.Clone(probes)
	slices.Sort(s)
	return float64(probeNominal) / float64(s[len(s)/2])
}
