package bdb

import (
	"fmt"

	"repro/internal/hashutil"
)

// HashIndex is a bucket-directory hash table on a block device: key → home
// bucket page, with overflow pages chained off full buckets. Inserts are
// in-place read-modify-writes — exactly the random small writes that flash
// punishes (§4, §7.2.2). Not safe for concurrent use.
type HashIndex struct {
	dev        *device
	seed       uint64
	nBuckets   int64
	nextFree   int64 // next unallocated page (overflow allocation)
	totalPages int64
	stats      Stats
}

// NewHashIndex lays out a hash index on the device. Buckets are sized for
// ~70% occupancy at CapacityEntries, mirroring a pre-sized BDB hash table.
func NewHashIndex(opts Options) (*HashIndex, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	nBuckets := opts.CapacityEntries * 10 / 7 / int64(entriesPerPage)
	if nBuckets < 1 {
		nBuckets = 1
	}
	totalPages := opts.Device.Geometry().Capacity / pageSize
	if nBuckets >= totalPages {
		return nil, fmt.Errorf("bdb: %d buckets exceed device (%d pages)", nBuckets, totalPages)
	}
	return &HashIndex{
		dev:        &device{dev: opts.Device, cache: newPageCache(opts.CachePages)},
		seed:       opts.Seed,
		nBuckets:   nBuckets,
		nextFree:   nBuckets,
		totalPages: totalPages,
	}, nil
}

func (h *HashIndex) bucketOf(key uint64) int64 {
	return int64(hashutil.Hash64Seed(key, h.seed) % uint64(h.nBuckets))
}

// Lookup returns the value stored under key, walking the overflow chain.
func (h *HashIndex) Lookup(key uint64) (uint64, bool, error) {
	if key == 0 {
		return 0, false, ErrZeroKey
	}
	h.stats.Lookups++
	pageID := h.bucketOf(key)
	for {
		p, err := h.dev.readPage(pageID)
		if err != nil {
			return 0, false, err
		}
		h.stats.PageReads++
		n := pageCount(p)
		for i := 0; i < n; i++ {
			k, v := pageEntry(p, i)
			if k == key {
				h.stats.Hits++
				return v, true, nil
			}
		}
		next := pageNext(p)
		if next == 0 {
			return 0, false, nil
		}
		pageID = next
	}
}

// Insert stores (key, value), overwriting an existing entry in place or
// appending to the bucket (allocating an overflow page if needed). Every
// path ends in a random in-place page write.
func (h *HashIndex) Insert(key, value uint64) error {
	if key == 0 {
		return ErrZeroKey
	}
	h.stats.Inserts++
	pageID := h.bucketOf(key)
	for {
		p, err := h.dev.readPage(pageID)
		if err != nil {
			return err
		}
		h.stats.PageReads++
		n := pageCount(p)
		// Overwrite in place if present.
		for i := 0; i < n; i++ {
			if k, _ := pageEntry(p, i); k == key {
				setPageEntry(p, i, key, value)
				h.stats.PageWrites++
				return h.dev.writePage(pageID, p)
			}
		}
		if n < entriesPerPage {
			setPageEntry(p, n, key, value)
			setPageHeader(p, pageNext(p), n+1)
			h.stats.PageWrites++
			return h.dev.writePage(pageID, p)
		}
		next := pageNext(p)
		if next != 0 {
			pageID = next
			continue
		}
		// Allocate a new overflow page, link it, and store there.
		if h.nextFree >= h.totalPages {
			return ErrFull
		}
		newID := h.nextFree
		h.nextFree++
		h.stats.OverflowPages++
		setPageHeader(p, newID, n)
		h.stats.PageWrites++
		if err := h.dev.writePage(pageID, p); err != nil {
			return err
		}
		np := make([]byte, pageSize)
		setPageEntry(np, 0, key, value)
		setPageHeader(np, 0, 1)
		h.stats.PageWrites++
		return h.dev.writePage(newID, np)
	}
}

// Delete removes key with an in-place rewrite (swap-with-last within the
// page), reporting whether it was present.
func (h *HashIndex) Delete(key uint64) (bool, error) {
	if key == 0 {
		return false, ErrZeroKey
	}
	h.stats.Deletes++
	pageID := h.bucketOf(key)
	for {
		p, err := h.dev.readPage(pageID)
		if err != nil {
			return false, err
		}
		h.stats.PageReads++
		n := pageCount(p)
		for i := 0; i < n; i++ {
			if k, _ := pageEntry(p, i); k == key {
				lk, lv := pageEntry(p, n-1)
				setPageEntry(p, i, lk, lv)
				setPageEntry(p, n-1, 0, 0)
				setPageHeader(p, pageNext(p), n-1)
				h.stats.PageWrites++
				return true, h.dev.writePage(pageID, p)
			}
		}
		next := pageNext(p)
		if next == 0 {
			return false, nil
		}
		pageID = next
	}
}
