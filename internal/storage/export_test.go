package storage

// The pointer codec, for the external tests that build pointer words the
// log never issued: stale, re-tagged, past the head or past the capacity.
var (
	EncodeValuePtr = encodeValuePtr
	DecodeValuePtr = decodeValuePtr
)

// Cycle returns the log's current append cycle: 1 on a fresh log, plus
// one per wrap. Encoding a pointer with it yields a word the skip rule
// never skips, so its read is the one the log made before the rule.
func (l *ValueLog) Cycle() uint64 { return l.cycle }

// Unit returns the log's write unit: the device's erase block, or about
// 64 KB on a device without one.
func (l *ValueLog) Unit() int { return l.unit }

// Slots returns the number of slots of the set's page table.
func (r *PageReads) Slots() int { return len(r.slots) }

// Sent returns the number of pages submitted.
func (r *PageReads) Sent() int { return len(r.pages) - r.unsent }
