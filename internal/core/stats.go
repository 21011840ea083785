package core

import "time"

// Stats counts BufferHash events. Latency distributions are measured by the
// caller (the clam facade) around the virtual clock; these counters capture
// the structural quantities the paper reports: flash I/Os per lookup
// (Table 2), spurious reads (Figure 5), cascaded evictions (Figure 8b).
type Stats struct {
	Inserts uint64
	Deletes uint64
	// Lookups and Hits count the keys LookupBatch resolved: a batch
	// resolves each distinct key once, so they count its distinct keys,
	// not its positions.
	Lookups uint64
	Hits    uint64
	// CacheHits counts the lookups the hot-entry cache answered; each is
	// also a zero-I/O lookup and a hit.
	CacheHits uint64
	// ScreenedProbes counts the buffer probes lookups skipped: those of
	// keys the Bloom query ruled out of the buffer, and either out of
	// every incarnation or in a super table with no pending deletes.
	ScreenedProbes uint64

	// FlashProbes counts incarnation page reads; SpuriousProbes counts the
	// subset that found nothing (Bloom false positives). PendingProbes
	// counts the subset that read a held image's page in DRAM, with no
	// device read (see BufferHash.WriteBehind).
	FlashProbes    uint64
	SpuriousProbes uint64
	PendingProbes  uint64

	// LookupIOHist[i] counts lookups that needed exactly i flash reads,
	// with the last bucket collecting ≥ len-1 (Table 2's distribution).
	LookupIOHist [8]uint64

	Flushes   uint64
	Evictions uint64
	// Expirations counts incarnations expired before their eviction
	// (BufferHash.ExpireThrough).
	Expirations  uint64
	PartialScans uint64
	Reinserted   uint64
	LRUReinserts uint64
	Cascades     uint64

	// FlushCPUHidden is the flushes' serialization work
	// (CPU.FlushSerialize) done while the instance waited for its device,
	// and FlushCPULanded the work that landed on the clock as a plain
	// advance: all of it on a device on the CPU's own clock.
	FlushCPUHidden time.Duration
	FlushCPULanded time.Duration
	// InsertCPUHidden is the buffer inserts' work (CPU.BufferInsert) done
	// while the instance waited for its device, and InsertCPULanded the
	// work that landed on the clock as a plain advance: all of it on a
	// device on the CPU's own clock (see pendingWork).
	InsertCPUHidden time.Duration
	InsertCPULanded time.Duration

	// CascadeHist[i] counts flushes that tried exactly i incarnations
	// (Figure 8b); the last bucket collects ≥ len-1.
	CascadeHist [65]uint64
}

func (s *Stats) recordLookup(res LookupResult) {
	s.Lookups++
	if res.Found {
		s.Hits++
	}
	s.SpuriousProbes += uint64(res.Spurious)
	i := res.FlashReads
	if i >= len(s.LookupIOHist) {
		i = len(s.LookupIOHist) - 1
	}
	s.LookupIOHist[i]++
}

func (s *Stats) recordCascade(tried int) {
	if tried >= len(s.CascadeHist) {
		tried = len(s.CascadeHist) - 1
	}
	s.CascadeHist[tried]++
}

// Merge accumulates the counters of o into s. It is the aggregation step
// behind sharded deployments, where each shard owns an independent
// BufferHash and a global view is assembled by summing per-shard snapshots.
func (s *Stats) Merge(o Stats) {
	s.Inserts += o.Inserts
	s.Deletes += o.Deletes
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.CacheHits += o.CacheHits
	s.ScreenedProbes += o.ScreenedProbes
	s.FlashProbes += o.FlashProbes
	s.SpuriousProbes += o.SpuriousProbes
	s.PendingProbes += o.PendingProbes
	for i := range s.LookupIOHist {
		s.LookupIOHist[i] += o.LookupIOHist[i]
	}
	s.Flushes += o.Flushes
	s.Evictions += o.Evictions
	s.Expirations += o.Expirations
	s.PartialScans += o.PartialScans
	s.Reinserted += o.Reinserted
	s.LRUReinserts += o.LRUReinserts
	s.Cascades += o.Cascades
	s.FlushCPUHidden += o.FlushCPUHidden
	s.FlushCPULanded += o.FlushCPULanded
	s.InsertCPUHidden += o.InsertCPUHidden
	s.InsertCPULanded += o.InsertCPULanded
	for i := range s.CascadeHist {
		s.CascadeHist[i] += o.CascadeHist[i]
	}
}

// HitRate returns the lookup success rate.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}
