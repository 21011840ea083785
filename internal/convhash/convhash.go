// Package convhash implements the conventional (unbuffered) hash table
// directly on flash that §4 of the paper argues against and §7.3.1 measures
// as the "without buffering" ablation: every insert is an in-place
// read-modify-write of the page holding the key's slot — a small random
// write — and every lookup is a random page read.
//
// The table uses open addressing with linear probing at page granularity:
// a key hashes to a slot; its page is probed first, overflowing into the
// following page(s). No DRAM is used beyond one page of scratch (the paper:
// "a memory buffer is practically useless for external hashing" [43]).
package convhash

import (
	"errors"
	"fmt"

	"repro/internal/hashutil"
	"repro/internal/storage"
)

// Errors.
var (
	ErrFull    = errors.New("convhash: table full")
	ErrZeroKey = errors.New("convhash: zero key is reserved")
)

// maxProbePages bounds linear probing before declaring the table full.
const maxProbePages = 8

// Table is an unbuffered on-flash hash table. Not safe for concurrent use.
type Table struct {
	dev          storage.Device
	seed         uint64
	pageSize     int
	slotsPerPage int
	nPages       int64
	count        int64
	maxCount     int64
	scratch      []byte
	stats        Stats
}

// Stats counts table operations.
type Stats struct {
	Inserts, Lookups, Hits uint64
	PageReads, PageWrites  uint64
}

// New lays a table across the whole device, capped at 70% occupancy.
func New(dev storage.Device, seed uint64) (*Table, error) {
	g := dev.Geometry()
	ps := g.PageSize
	nPages := g.Capacity / int64(ps)
	if nPages < 2 {
		return nil, fmt.Errorf("convhash: device too small (%d pages)", nPages)
	}
	slots := ps / hashutil.EntrySize
	return &Table{
		dev:          dev,
		seed:         seed,
		pageSize:     ps,
		slotsPerPage: slots,
		nPages:       nPages,
		maxCount:     nPages * int64(slots) * 7 / 10,
		scratch:      make([]byte, ps),
	}, nil
}

func (t *Table) homePage(key uint64) int64 {
	return int64(hashutil.Hash64Seed(key, t.seed) % uint64(t.nPages))
}

func (t *Table) readPage(id int64) error {
	_, err := t.dev.ReadAt(t.scratch, id*int64(t.pageSize))
	t.stats.PageReads++
	return err
}

func (t *Table) writePage(id int64) error {
	_, err := t.dev.WriteAt(t.scratch, id*int64(t.pageSize))
	t.stats.PageWrites++
	return err
}

// Insert stores (key, value) with an in-place page rewrite.
func (t *Table) Insert(key, value uint64) error {
	if key == 0 {
		return ErrZeroKey
	}
	if t.count >= t.maxCount {
		return ErrFull
	}
	t.stats.Inserts++
	home := t.homePage(key)
	for probe := int64(0); probe < maxProbePages; probe++ {
		id := (home + probe) % t.nPages
		if err := t.readPage(id); err != nil {
			return err
		}
		freeSlot := -1
		for i := 0; i < t.slotsPerPage; i++ {
			k, _ := hashutil.GetEntry(t.scratch[i*hashutil.EntrySize:])
			if k == key {
				hashutil.PutEntry(t.scratch[i*hashutil.EntrySize:], key, value)
				return t.writePage(id)
			}
			if k == 0 && freeSlot < 0 {
				freeSlot = i
			}
		}
		if freeSlot >= 0 {
			hashutil.PutEntry(t.scratch[freeSlot*hashutil.EntrySize:], key, value)
			t.count++
			return t.writePage(id)
		}
	}
	return ErrFull
}

// Lookup returns the value stored under key.
func (t *Table) Lookup(key uint64) (uint64, bool, error) {
	if key == 0 {
		return 0, false, ErrZeroKey
	}
	t.stats.Lookups++
	home := t.homePage(key)
	for probe := int64(0); probe < maxProbePages; probe++ {
		id := (home + probe) % t.nPages
		if err := t.readPage(id); err != nil {
			return 0, false, err
		}
		sawFree := false
		for i := 0; i < t.slotsPerPage; i++ {
			k, v := hashutil.GetEntry(t.scratch[i*hashutil.EntrySize:])
			if k == key {
				t.stats.Hits++
				return v, true, nil
			}
			if k == 0 {
				sawFree = true
			}
		}
		if sawFree {
			// A free slot in the probe path means the key was never
			// pushed further.
			return 0, false, nil
		}
	}
	return 0, false, nil
}
