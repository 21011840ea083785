// Package dedup implements the deduplication/backup scenario of §3: merging
// the fingerprint index of one dataset into a larger one. "To merge a
// smaller index into a larger one, fingerprints from the latter dataset
// need to be looked up, and the larger index updated with any new
// information. We estimate that merging fingerprints into a larger index
// using Berkeley-DB could take as long as 2hrs. In contrast, our CLAM
// prototypes can help the merge finish in under 2mins."
//
// Fingerprints are full SHA-1-sized byte strings and the index stores a
// variable-length chunk locator per fingerprint (container + byte range) —
// the record a real dedup index keeps. The clam byte-keyed Store serves
// this directly; the Berkeley-DB baseline truncates fingerprints to 64
// bits through an adapter, exactly the compromise the old 8-byte API
// forced on every caller.
//
// The merge walks every fingerprint of the incoming (smaller) index,
// looks it up in the destination index, and inserts it if absent — a
// lookup-heavy, insert-heavy random workload that is exactly where
// BufferHash's batched writes and Bloom-filtered lookups pay off.
package dedup

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/hashutil"
	"repro/internal/vclock"
)

// FingerprintBytes is the size of a chunk fingerprint (SHA-1).
const FingerprintBytes = 20

// Index is the fingerprint store being merged into (a clam.Store, or the
// BDB baseline behind an adapter): fingerprint bytes → chunk locator.
type Index interface {
	Put(fp, locator []byte) error
	Get(fp []byte) ([]byte, bool, error)
}

// BatchIndex is implemented by indexes whose existence probes and inserts
// can be batched into overlapped submissions (clam.Store). The merge feeds
// such indexes window-at-a-time, so the index page probes overlap across
// the device's queue lanes instead of paying one blocking round trip per
// fingerprint. A merge only asks "have I seen this fingerprint", so its
// probe stops at the index hit and skips the record fetch; the probe's
// fingerprint-collision false positive rate — which the paper accepts at
// 32–64-bit fingerprints — merely misclassifies a chunk as duplicate, the
// same outcome a true fingerprint collision produces in any dedup system.
type BatchIndex interface {
	Index
	ContainsBatch(ctx context.Context, fps [][]byte) ([]bool, error)
	PutBatch(ctx context.Context, fps, locators [][]byte) error
}

// mergeWindow is the batched-merge window size.
const mergeWindow = 1024

// FingerprintSet is a deterministic synthetic set of chunk fingerprints,
// standing in for a dataset's index. The paper's dedup corpora are not
// public, and SHA-1 fingerprints are uniform whatever the data, so a
// merge's cost depends only on how many fingerprints there are and how
// many overlap, both of which the set controls.
type FingerprintSet struct {
	seed uint64
	n    int64
}

// NewFingerprintSet describes n fingerprints derived from seed.
func NewFingerprintSet(seed uint64, n int64) *FingerprintSet {
	return &FingerprintSet{seed: seed, n: n}
}

// Len returns the set size.
func (s *FingerprintSet) Len() int64 { return s.n }

// At returns the i-th fingerprint: 20 pseudo-SHA-1 bytes derived from the
// set seed.
func (s *FingerprintSet) At(i int64) []byte {
	fp := make([]byte, FingerprintBytes)
	binary.LittleEndian.PutUint64(fp[0:8], hashutil.Hash64Seed(uint64(i), s.seed))
	binary.LittleEndian.PutUint64(fp[8:16], hashutil.Hash64Seed(uint64(i), s.seed^0xfeedface))
	binary.LittleEndian.PutUint32(fp[16:20], uint32(hashutil.Hash64Seed(uint64(i), s.seed^0x1234abcd)))
	return fp
}

// LocatorAt returns the i-th fingerprint's chunk locator — the
// variable-length "where the chunk lives" record the index stores:
// container, offset, length.
func (s *FingerprintSet) LocatorAt(i int64) []byte {
	return fmt.Appendf(nil, "container-%05d:%010x+%d", i>>10, i<<13, 4096+(i*97)%8192)
}

// Result summarizes a merge.
type Result struct {
	Scanned    int64
	New        int64
	Duplicates int64
	// Elapsed is the virtual time the merge took.
	Elapsed time.Duration
}

// Rate returns merged fingerprints per second of virtual time.
func (r Result) Rate() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Scanned) / r.Elapsed.Seconds()
}

// source is the common surface of FingerprintSet and OverlappingSet.
type source interface {
	Len() int64
	At(i int64) []byte
	LocatorAt(i int64) []byte
}

// merge folds src into dst: look up each fingerprint, insert the locator
// for the new ones. Batch-capable indexes are driven window-at-a-time; the
// per-fingerprint outcome (New vs Duplicate) is identical to the serial
// walk — a fingerprint repeated within one window counts as a duplicate,
// exactly as it would after the serial walk's insert.
func merge(dst Index, src source, clock *vclock.Clock) (Result, error) {
	var res Result
	w := clock.StartWatch()
	if b, ok := dst.(BatchIndex); ok {
		err := mergeBatched(b, src, &res)
		res.Elapsed = w.Elapsed()
		return res, err
	}
	for i := int64(0); i < src.Len(); i++ {
		fp := src.At(i)
		res.Scanned++
		_, found, err := dst.Get(fp)
		if err != nil {
			return res, fmt.Errorf("dedup: lookup: %w", err)
		}
		if found {
			res.Duplicates++
			continue
		}
		if err := dst.Put(fp, src.LocatorAt(i)); err != nil {
			return res, fmt.Errorf("dedup: insert: %w", err)
		}
		res.New++
	}
	res.Elapsed = w.Elapsed()
	return res, nil
}

// mergeBatched is the windowed merge path for batch-capable indexes.
func mergeBatched(dst BatchIndex, src source, res *Result) error {
	ctx := context.Background()
	fps := make([][]byte, 0, mergeWindow)
	locs := make([][]byte, 0, mergeWindow)
	newFps := make([][]byte, 0, mergeWindow)
	newLocs := make([][]byte, 0, mergeWindow)
	seen := make(map[string]bool, mergeWindow)
	for at := int64(0); at < src.Len(); at += mergeWindow {
		fps, locs = fps[:0], locs[:0]
		for i := at; i < min(at+mergeWindow, src.Len()); i++ {
			fps = append(fps, src.At(i))
			locs = append(locs, src.LocatorAt(i))
		}
		res.Scanned += int64(len(fps))
		found, err := dst.ContainsBatch(ctx, fps)
		if err != nil {
			return fmt.Errorf("dedup: batched lookup: %w", err)
		}
		newFps, newLocs = newFps[:0], newLocs[:0]
		clear(seen)
		for i, ok := range found {
			if ok || seen[string(fps[i])] {
				res.Duplicates++
				continue
			}
			seen[string(fps[i])] = true
			newFps = append(newFps, fps[i])
			newLocs = append(newLocs, locs[i])
			res.New++
		}
		if len(newFps) == 0 {
			continue
		}
		if err := dst.PutBatch(ctx, newFps, newLocs); err != nil {
			return fmt.Errorf("dedup: batched insert: %w", err)
		}
	}
	return nil
}

// Populate bulk-inserts a fingerprint set into an index (building the
// "large" destination index before a merge).
func Populate(dst Index, set *FingerprintSet) error {
	for i := int64(0); i < set.Len(); i++ {
		if err := dst.Put(set.At(i), set.LocatorAt(i)); err != nil {
			return fmt.Errorf("dedup: populate: %w", err)
		}
	}
	return nil
}

// OverlappingSet is an incoming set of n fingerprints of which ~overlap
// fraction collide with base (sharing its seed and index space).
type OverlappingSet struct {
	base    *FingerprintSet
	fresh   *FingerprintSet
	overlap float64
	n       int64
}

// NewOverlappingSet builds an incoming set with the given overlap fraction
// against base.
func NewOverlappingSet(base *FingerprintSet, freshSeed uint64, n int64, overlap float64) *OverlappingSet {
	return &OverlappingSet{
		base:    base,
		fresh:   NewFingerprintSet(freshSeed, n),
		overlap: overlap,
		n:       n,
	}
}

// Len returns the set size.
func (o *OverlappingSet) Len() int64 { return o.n }

// At returns the i-th fingerprint: a duplicate of a base fingerprint for
// the first overlap·n indexes, fresh otherwise.
func (o *OverlappingSet) At(i int64) []byte {
	if float64(i) < o.overlap*float64(o.n) && o.base.Len() > 0 {
		return o.base.At(i % o.base.Len())
	}
	return o.fresh.At(i)
}

// LocatorAt mirrors At's index space.
func (o *OverlappingSet) LocatorAt(i int64) []byte {
	if float64(i) < o.overlap*float64(o.n) && o.base.Len() > 0 {
		return o.base.LocatorAt(i % o.base.Len())
	}
	return o.fresh.LocatorAt(i)
}

// MergeOverlapping folds the incoming fingerprint set into dst.
func MergeOverlapping(dst Index, incoming *OverlappingSet, clock *vclock.Clock) (Result, error) {
	return merge(dst, incoming, clock)
}
