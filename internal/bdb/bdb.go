// Package bdb implements the paper's principal baseline: a Berkeley-DB
// style on-device index (§7.2.2). HashIndex is a bucket-directory hash
// table with overflow chains, the structure behind "the hash table
// structure in Berkeley-DB (BDB)". It is the only BDB index reproduced:
// the paper reports no figure for the B-tree, only that "We also
// considered the B-Tree index of BDB, but the performance was worse than
// the hash table".
//
// What matters for the comparison with BufferHash is the access pattern,
// not BDB's exact code: every lookup is a random page read and every
// insert/update is an in-place read-modify-write of a 4 KB page with
// write-through to the device — no write batching. A small in-memory page
// cache (BDB's "buffer pool") absorbs repeated reads of hot pages but, as
// in the paper, is far too small to matter for uniformly random keys over
// a large table.
//
// Entries are fixed 16-byte (key, value) pairs, as in BufferHash, so the
// two systems store identical data.
package bdb

import (
	"errors"
	"fmt"

	"repro/internal/hashutil"
	"repro/internal/storage"
)

// Common errors.
var (
	// ErrFull is returned when the index cannot allocate another overflow
	// page.
	ErrFull = errors.New("bdb: index out of space")
	// ErrZeroKey is returned for the reserved key 0.
	ErrZeroKey = errors.New("bdb: zero key is reserved")
)

const (
	pageSize = 4096
	// pageHeaderBytes: next-overflow pointer (8) + entry count (8).
	pageHeaderBytes = 16
	entriesPerPage  = (pageSize - pageHeaderBytes) / hashutil.EntrySize // 255
)

// pageCache is a tiny write-through LRU page cache standing in for BDB's
// buffer pool.
type pageCache struct {
	capacity int
	pages    map[int64][]byte
	order    []int64 // LRU order, front = oldest; small caches only
}

func newPageCache(capacity int) *pageCache {
	return &pageCache{capacity: capacity, pages: make(map[int64][]byte)}
}

func (c *pageCache) get(id int64) []byte {
	if p, ok := c.pages[id]; ok {
		c.touch(id)
		return p
	}
	return nil
}

func (c *pageCache) touch(id int64) {
	for i, v := range c.order {
		if v == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.order = append(c.order, id)
}

func (c *pageCache) put(id int64, p []byte) {
	if c.capacity == 0 {
		return
	}
	if _, ok := c.pages[id]; !ok && len(c.pages) >= c.capacity {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.pages, oldest)
	}
	c.pages[id] = p
	c.touch(id)
}

// device wraps the storage device with page-granular cached I/O.
type device struct {
	dev   storage.Device
	cache *pageCache
}

func (d *device) readPage(id int64) ([]byte, error) {
	if p := d.cache.get(id); p != nil {
		return p, nil
	}
	p := make([]byte, pageSize)
	if _, err := d.dev.ReadAt(p, id*pageSize); err != nil {
		return nil, err
	}
	d.cache.put(id, p)
	return p, nil
}

// writePage writes through to the device and refreshes the cache.
func (d *device) writePage(id int64, p []byte) error {
	if _, err := d.dev.WriteAt(p, id*pageSize); err != nil {
		return err
	}
	d.cache.put(id, p)
	return nil
}

// Options configures an index.
type Options struct {
	// Device backs the index.
	Device storage.Device
	// CapacityEntries sizes the bucket directory.
	CapacityEntries int64
	// CachePages bounds the in-memory page cache (default 256 = 1 MB).
	CachePages int
	// Seed makes hashing deterministic.
	Seed uint64
}

func (o *Options) validate() error {
	if o.Device == nil {
		return fmt.Errorf("bdb: Device is required")
	}
	if o.CapacityEntries <= 0 {
		return fmt.Errorf("bdb: CapacityEntries must be positive")
	}
	if o.Device.Geometry().PageSize != pageSize {
		return fmt.Errorf("bdb: device page size %d, need %d", o.Device.Geometry().PageSize, pageSize)
	}
	if o.CachePages == 0 {
		o.CachePages = 256
	}
	return nil
}

// Stats counts index operations.
type Stats struct {
	Inserts, Lookups, Hits, Deletes uint64
	PageReads, PageWrites           uint64
	CacheHits                       uint64
	OverflowPages                   uint64
}

// page layout helpers ------------------------------------------------------

func pageNext(p []byte) int64 {
	k, _ := hashutil.GetEntry(p[:16])
	return int64(k)
}

func pageCount(p []byte) int {
	_, v := hashutil.GetEntry(p[:16])
	return int(v)
}

func setPageHeader(p []byte, next int64, count int) {
	hashutil.PutEntry(p[:16], uint64(next), uint64(count))
}

func pageEntry(p []byte, i int) (uint64, uint64) {
	return hashutil.GetEntry(p[pageHeaderBytes+i*hashutil.EntrySize:])
}

func setPageEntry(p []byte, i int, k, v uint64) {
	hashutil.PutEntry(p[pageHeaderBytes+i*hashutil.EntrySize:], k, v)
}
