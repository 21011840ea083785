// Package rabin implements Rabin-Karp rolling fingerprints and the
// content-defined chunking used by the WAN optimizer's connection
// management front end (§8: "The buffered object data is divided into
// chunks by computing content-based chunk boundaries using Rabin-Karp
// fingerprints").
//
// A 48-byte window rolls over the data; positions where the fingerprint
// matches a mask-selected pattern become chunk boundaries, so identical
// content produces identical chunks regardless of its offset in the
// stream. Chunk sizes are bounded to [MinSize, MaxSize] with an expected
// size of ~2^MaskBits bytes; the paper's systems use ~4–8 KB chunks.
package rabin

import "repro/internal/hashutil"

// Window is the rolling-hash window size in bytes.
const Window = 48

// prime is the polynomial base (an odd 61-bit prime-ish multiplier).
const prime = 0x3B9ACA07

// Chunker splits byte streams into content-defined chunks.
type Chunker struct {
	minSize int
	maxSize int
	mask    uint64
	magic   uint64
	// pow = prime^Window, used to remove the byte leaving the window.
	pow uint64
	// table randomizes byte values before mixing, hardening the
	// polynomial hash against low-entropy input.
	table [256]uint64
}

// NewChunker builds a chunker with an expected chunk size of 2^maskBits
// bytes, bounded to [minSize, maxSize]. The paper's configuration is
// maskBits=13 (8 KB average), minSize=2 KB, maxSize=64 KB.
func NewChunker(maskBits uint, minSize, maxSize int, seed uint64) *Chunker {
	if minSize < Window {
		minSize = Window
	}
	if maxSize < minSize {
		maxSize = minSize
	}
	c := &Chunker{
		minSize: minSize,
		maxSize: maxSize,
		mask:    1<<maskBits - 1,
		magic:   hashutil.Mix64(seed) & (1<<maskBits - 1),
	}
	pow := uint64(1)
	for i := 0; i < Window; i++ {
		pow *= prime
	}
	c.pow = pow
	for i := range c.table {
		c.table[i] = hashutil.Hash64Seed(uint64(i), seed^0xFEED)
	}
	return c
}

// Default returns the paper-flavoured chunker: ~8 KB average chunks in
// [2 KB, 64 KB].
func Default() *Chunker {
	return NewChunker(13, 2<<10, 64<<10, 0xC0FFEE)
}

// Boundaries returns the chunk end offsets for data: each chunk is
// data[prev:off]. The final offset is always len(data).
func (c *Chunker) Boundaries(data []byte) []int {
	var cuts []int
	start := 0
	var h uint64
	for i := 0; i < len(data); i++ {
		h = h*prime + c.table[data[i]]
		if i-start >= Window {
			h -= c.pow * c.table[data[i-Window]]
		}
		size := i - start + 1
		if size < c.minSize {
			continue
		}
		if h&c.mask == c.magic || size >= c.maxSize {
			cuts = append(cuts, i+1)
			start = i + 1
			h = 0
		}
	}
	if start < len(data) || len(data) == 0 {
		cuts = append(cuts, len(data))
	}
	return cuts
}

// Split returns the chunks of data as sub-slices (no copying).
func (c *Chunker) Split(data []byte) [][]byte {
	cuts := c.Boundaries(data)
	chunks := make([][]byte, 0, len(cuts))
	prev := 0
	for _, cut := range cuts {
		chunks = append(chunks, data[prev:cut])
		prev = cut
	}
	return chunks
}
