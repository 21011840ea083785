// Quickstart: open a Store, map content fingerprints to variable-length
// chunks, look them up, update and delete — the basic CAM lifecycle from
// the paper's abstract on the redesigned byte-slice API, with the original
// uint64 fast path alongside.
package main

import (
	"bytes"
	"crypto/sha1"
	"flag"
	"fmt"
	"log"

	"repro/clam"
	"repro/internal/metrics"
)

func main() {
	smoke := flag.Bool("smoke", false, "shrink the workload for CI smoke runs")
	flag.Parse()
	n := 200_000
	if *smoke {
		n = 20_000
	}

	// A 64 MB CLAM on a simulated Intel-class SSD with an 8 MB DRAM
	// budget (split per the paper's §6.4 tuning rules) and a 64 MB value
	// log holding the byte values.
	st, err := clam.Open(
		clam.WithDevice(clam.IntelSSD),
		clam.WithFlash(64<<20),
		clam.WithMemory(8<<20),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Store n fingerprint → chunk-record mappings. Keys are real 20-byte
	// SHA-1 fingerprints; values are variable-length records appended to
	// the value log, while the index writes land in DRAM buffers that
	// flush to flash in 128 KB batches.
	fp := func(i int) []byte {
		sum := sha1.Sum(fmt.Appendf(nil, "chunk-%d", i))
		return sum[:]
	}
	record := func(i int) []byte {
		return fmt.Appendf(nil, "container-%04d offset %010d length %d", i>>12, i<<9, 512+(i%3500))
	}
	for i := 0; i < n; i++ {
		if err := st.Put(fp(i), record(i)); err != nil {
			log.Fatal(err)
		}
	}

	// Look some up: every read is verified against the full key bytes
	// stored in the record, so fingerprint collisions can never surface
	// wrong values.
	for _, i := range []int{n - 1, n / 2, 0} {
		val, ok, err := st.Get(fp(i))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fingerprint %x... -> %-45q (found=%v)\n", fp(i)[:6], val, ok)
	}

	// Lazy update (a Put of a new version) and delete (§5.1.1).
	if err := st.Put(fp(7), []byte("moved to container-9999")); err != nil {
		log.Fatal(err)
	}
	v, _, err := st.Get(fp(7))
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(v, []byte("moved to container-9999")) {
		log.Fatal("update not visible")
	}
	if err := st.Delete(fp(7)); err != nil {
		log.Fatal(err)
	}
	_, ok, err := st.Get(fp(7))
	if err != nil {
		log.Fatal(err)
	}
	if ok {
		log.Fatal("delete not visible")
	}

	// The uint64 fast path stores word-sized values inline in the hash
	// entry — no value log, no fingerprinting step: the paper's original
	// fingerprint → disk-address workload.
	for i := uint64(1); i <= uint64(n); i++ {
		if err := st.PutU64(i, i*4096); err != nil {
			log.Fatal(err)
		}
	}
	addr, ok, err := st.GetU64(uint64(n))
	if err != nil {
		log.Fatal(err)
	}
	if ok {
		fmt.Printf("fast path: fingerprint %d -> address %d\n", n, addr)
	}

	s := st.Stats()
	fmt.Printf("\ninserts: mean %.4f ms (worst %.2f ms)\n",
		metrics.Ms(s.InsertLatency.Mean), metrics.Ms(s.InsertLatency.Max))
	fmt.Printf("lookups: mean %.4f ms\n", metrics.Ms(s.LookupLatency.Mean))
	fmt.Printf("index: %d flushes, %d device writes (batched flash writes)\n",
		s.Core.Flushes, s.Device.Writes)
	fmt.Printf("value log: %d records, %d KB appended, %d device writes (page-aligned appends)\n",
		s.ValueLog.Records, s.ValueLog.AppendedBytes>>10, s.ValueDevice.Writes)
	fmt.Printf("DRAM: %d KB buffers + %d KB Bloom filters\n",
		s.Memory.BufferBytes>>10, s.Memory.BloomBytes>>10)
}
