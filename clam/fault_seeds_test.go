package clam

import (
	"testing"
	"time"

	"repro/internal/storage"
)

// faultPath names the device request a targeted FuzzFaultedOps seed
// fails.
type faultPath int

const (
	// A GetBatch's value-log record read of hits its second or a later
	// probing round resolved: it runs on the log device while the index
	// device probes the next round.
	pathLateRoundLogRead faultPath = iota
	// A PutBatch's value-log write in a chunk that also flushes an index
	// buffer.
	pathFlushingAppend
	// A GetBatch's index read while its phase A still runs.
	pathStreamedIndexRead
	// A GetBatch's value-log record read while its phase A still runs: a
	// hand-off of hits that are already final.
	pathHandoffLogRead
	// A PutBatch's whole-block value-log write in a chunk that flushes
	// nothing, which a successful chunk leaves running behind it.
	pathAppendBehind
	// A GetBatch's value-log record read on the index SSD's log
	// partition, which queues on the index device's timeline.
	pathPartLogRead
	// A PutBatch's value-log write on the index SSD's log partition.
	pathPartLogWrite
	// The partition's share of a wrap's padding write that spans both
	// SSDs: the log SSD's share, served first, ended the log SSD's units,
	// and the failing share ends the partition's.
	pathWrapAcrossMembers
)

// targetedFaultSeeds are FuzzFaultedOps inputs whose fault bitmaps set one
// bit, on one device's, which fails request req of that device, on path.
// TestFaultedOpsSeedPaths checks each against a trace of its run. Each
// device counts its own requests, so a seed stays on its path while
// changes move only the other device's requests. Re-derive a seed whose
// path moved with a search over op sequences traced by traceFaultedOps,
// failing each request of the seed's device the trace puts on the path in
// turn.
var targetedFaultSeeds = []faultSeed{
	// A GetBatch (op 111) whose record read of hits its second or a later
	// round resolved fails on the log SSD. Its PutBatchU64 windows push the
	// byte keys' pointers into flash incarnations, where a Bloom false
	// positive makes a lookup probe twice.
	{pathLateRoundLogRead, []byte{
		0xc, 0xc5, 0x35, 0xb, 0x35, 0x1e, 0x8, 0x4e, 0x3c, 0xb, 0x33, 0x28,
		0xc, 0x61, 0xb4, 0xb, 0xf1, 0x3c, 0x8, 0x95, 0x44, 0x8, 0x3, 0x26,
		0xc, 0x6c, 0x6e, 0xc, 0xa, 0x2f, 0xc, 0x86, 0x37, 0x8, 0x7b, 0x35,
		0x8, 0xb9, 0x4a, 0x8, 0x5c, 0x35, 0x8, 0x2d, 0x4c, 0xb, 0x84, 0x27,
		0x8, 0xd7, 0x2c, 0xc, 0xf3, 0x2e, 0xb, 0x89, 0x2a, 0xc, 0xfa, 0x37,
		0xc, 0x81, 0x2f, 0xb, 0x83, 0x24, 0xc, 0xcf, 0x25, 0xb, 0x8a, 0x3b,
		0x8, 0x34, 0xf, 0xc, 0x2a, 0x3b, 0x8, 0x2, 0x61, 0xc, 0x7a, 0x3a,
		0xb, 0x47, 0xac, 0x8, 0x64, 0x2d, 0xc, 0x1b, 0xd4, 0x8, 0xe, 0xc1,
		0x8, 0x38, 0x3b, 0xc, 0xa6, 0x3b, 0x8, 0x78, 0x34, 0x8, 0xbc, 0xaa,
		0x8, 0x8c, 0x36, 0xc, 0xf2, 0x2b, 0xc, 0x70, 0xf6, 0x8, 0x98, 0x22,
		0x8, 0xf4, 0x76, 0x8, 0x75, 0x3e, 0xc, 0x97, 0x27, 0xb, 0x35, 0x2a,
		0x8, 0x7a, 0x3e, 0x8, 0x5, 0x39, 0x8, 0xb5, 0x2a, 0x8, 0xfb, 0x83,
		0xc, 0xe6, 0x71, 0xb, 0xe3, 0x3a, 0x8, 0x7e, 0x84, 0x8, 0xe1, 0x32,
		0x8, 0x1c, 0x22, 0x8, 0x2f, 0x3e, 0xc, 0xfc, 0x33, 0x8, 0xbd, 0x24,
		0xc, 0xbd, 0x3f, 0xb, 0x83, 0x31, 0xc, 0x4e, 0x26, 0xb, 0xab, 0x35,
		0xc, 0x6d, 0x2d, 0xb, 0x22, 0x2b, 0x8, 0x36, 0x98, 0x8, 0x7, 0x37,
		0xc, 0x32, 0x24, 0x8, 0x72, 0x3d, 0xc, 0xd1, 0x38, 0xc, 0xc6, 0x62,
		0x8, 0x57, 0x38, 0xc, 0x1f, 0x42, 0x8, 0x92, 0x3f, 0x8, 0x62, 0x1b,
		0xc, 0xcd, 0x37, 0xc, 0x9f, 0x23, 0x8, 0xc1, 0xb1, 0x8, 0x47, 0x55,
		0xb, 0xd, 0x37, 0x8, 0x64, 0x25, 0x8, 0x34, 0xd9, 0x8, 0x31, 0x2e,
		0x8, 0x25, 0x2d, 0xb, 0xe4, 0x3d, 0xb, 0xf2, 0x20, 0x8, 0xc5, 0x3d,
		0x8, 0xc8, 0x36, 0x8, 0x35, 0x3b, 0x8, 0x3, 0xe4, 0x8, 0xd0, 0x3f,
		0xc, 0x12, 0x39, 0x8, 0x36, 0x32, 0x8, 0xd9, 0x23, 0x8, 0x69, 0x28,
		0x8, 0x27, 0x35, 0xc, 0xb3, 0x29, 0xb, 0x73, 0x24, 0xb, 0x59, 0xf9,
		0x8, 0x84, 0x43, 0x8, 0xac, 0x64, 0x8, 0x68, 0x32, 0x8, 0x1d, 0x20,
		0x8, 0xc7, 0x2d, 0x8, 0xbb, 0x31, 0x8, 0xa, 0x2c, 0xb, 0x2, 0x32,
		0x8, 0xd4, 0x2c, 0x8, 0xa2, 0x31, 0xc, 0xbb, 0x33, 0x8, 0x84, 0x20,
		0xc, 0xe0, 0x2e, 0x8, 0x69, 0x3a, 0xc, 0xc, 0x28, 0xc, 0x75, 0xb1,
		0x8, 0x16, 0x27, 0xc, 0x69, 0x3c,
	}, roleLog, 273, 39},
	// A PutBatch (op 9) whose value-log write on the log SSD fails while
	// it flushes an index buffer.
	{pathFlushingAppend, []byte{
		0xc, 0x20, 0x32, 0x8, 0x40, 0x38, 0xb, 0xbf, 0x2d, 0xe, 0xea, 0x20,
		0x8, 0x81, 0x26, 0xb, 0xf5, 0xcd, 0xb, 0x73, 0x3b, 0x6, 0xcf, 0x34,
		0x1, 0x3e, 0x21, 0xb, 0x71, 0x29, 0xc, 0x58, 0x47, 0xc, 0xbd, 0x36,
	}, roleLog, 1, 4},
	// A GetBatch (op 9) whose index read fails while its phase A runs.
	{pathStreamedIndexRead, []byte{
		0xb, 0x4f, 0xea, 0x8, 0x96, 0x3f, 0xb, 0x12, 0xcf, 0xe, 0x8e, 0x3c,
		0x8, 0xb7, 0x3b, 0xb, 0x37, 0x77, 0x0, 0x7b, 0x2a, 0x0, 0x1, 0x25,
		0x8, 0xf2, 0x6f, 0xc, 0xe9, 0x84, 0xb, 0x0, 0x89, 0x6, 0xf3, 0xed,
	}, roleIndex, 1, 4},
	// A GetBatch (op 13) whose record read of buffer hits on the log SSD
	// fails while its phase A runs.
	{pathHandoffLogRead, []byte{
		0x6, 0x21, 0x34, 0xc, 0xf7, 0x2b, 0xc, 0xac, 0x23, 0x8, 0x32, 0x25,
		0x9, 0xf1, 0x36, 0xc, 0x63, 0x25, 0x6, 0x89, 0x3b, 0x9, 0x33, 0x34,
		0xb, 0xac, 0x3b, 0xb, 0x6a, 0x2c, 0x9, 0x10, 0x27, 0xb, 0xab, 0x49,
		0xe, 0xf9, 0x39, 0xc, 0x74, 0x21, 0xe, 0xb5, 0x25,
	}, roleLog, 1, 6},
	// A PutBatch (op 5) whose whole-block value-log write on the log SSD
	// fails, with no flush.
	{pathAppendBehind, []byte{
		0x0, 0x8, 0x3a, 0xe, 0xfd, 0x30, 0x5, 0x3b, 0x21, 0x6, 0x42, 0x3d,
		0x1, 0xd7, 0x0, 0xb, 0x6e, 0x3b, 0xb, 0x0, 0x31, 0xb, 0x73, 0x39,
	}, roleLog, 0, 9},
	// A GetBatch (op 8) whose record read on the index SSD's log
	// partition fails.
	{pathPartLogRead, []byte{
		0x1, 0xcd, 0x2c, 0xb, 0x97, 0x2a, 0x5, 0x6b, 0x25, 0xb, 0xd2, 0x38,
		0xd, 0x59, 0x34, 0xd, 0x8a, 0x21, 0x5, 0x64, 0x2d, 0x0, 0x7a, 0x26,
		0xc, 0x57, 0x2f, 0x5, 0xfe, 0x27, 0xb, 0x40, 0x33,
	}, rolePart, 1, 6},
	// A PutBatch (op 5) whose whole-block value-log write on the index
	// SSD's log partition fails.
	{pathPartLogWrite, []byte{
		0xb, 0xe9, 0x26, 0xb, 0x64, 0x2b, 0x0, 0x7b, 0x27, 0x4, 0x2, 0xa5,
		0x8, 0x7d, 0x36, 0xb, 0x29, 0x3b, 0xe, 0x18, 0x32, 0xc, 0x11, 0x24,
	}, rolePart, 0, 9},
	// A PutBatch (op 12) whose wrap writes the log's last two units, one
	// on each SSD: the log SSD's share is served, the partition's fails.
	{pathWrapAcrossMembers, []byte{
		0xc, 0x51, 0x24, 0xe, 0x7f, 0x3c, 0x8, 0xda, 0x2a, 0xb, 0x38, 0xd3,
		0xb, 0xf0, 0x38, 0xb, 0xfe, 0x32, 0x5, 0xcf, 0x3e, 0xc, 0x4a, 0x33,
		0x9, 0x61, 0x3a, 0x9, 0x75, 0x2a, 0xc, 0x26, 0x24, 0x9, 0xe9, 0xac,
		0xb, 0x90, 0x34,
	}, rolePart, 1, 4},
}

// faultSeed is a FuzzFaultedOps input whose fault bitmaps set one bit, on
// one device's.
type faultSeed struct {
	path      faultPath
	ops       []byte
	dev       faultRole // the failing device
	req       int       // the failed request, counted on that device in issue order
	bitmapLen int       // the bitmap's bytes: the failure repeats every 8·bitmapLen requests
}

// bitmaps returns the seed's fault bitmaps of the index device, the log
// SSD and the index SSD's log partition.
func (s faultSeed) bitmaps() (index, log, part []byte) {
	bm := [3][]byte{}
	bm[s.dev] = make([]byte, s.bitmapLen)
	bm[s.dev][s.req/8] = 1 << (s.req % 8)
	return bm[roleIndex], bm[roleLog], bm[rolePart]
}

// tracedReq is a device request of a traced run, with the context it was
// issued in.
type tracedReq struct {
	failed bool
	dev    faultRole
	op     storage.Op
	req    int  // the request, counted per device in issue order
	opNum  int  // the driver op in progress, counted from 0
	kind   int  // its fault op kind
	phaseA bool // a GetBatch's clock was below the least end of its phase A
	// probes is the most index pages any hit of the hand-off in progress
	// read (see core.HitHook): a hit resolved in round r read r pages.
	probes int
	// indexWrote reports that the index device wrote during the driver
	// op: its chunk flushed a buffer.
	indexWrote bool
	// tail reports a write that ends at its SSD's capacity, as a wrap's
	// padding write does on the SSD holding the log's last unit, and the
	// other's when the write spans both; spans reports a tail write on the
	// partition whose op's previous request was a tail write on the log
	// SSD: the two shares of one write.
	tail, spans bool
}

// traceFaultedOps runs FuzzFaultedOps' body on ops and faults and
// returns every device request, with its context, and the number of
// driver ops that failed. A GetBatch runs its phase A at least until its
// clock passes its start plus BufferLookup for each of its keys (phase A
// finds no repeat: a window of at most 64 keys repeats none of the 256).
func traceFaultedOps(t *testing.T, ops, indexFaults, logFaults, partFaults []byte) (reqs []tracedReq, errs int) {
	r, d := openFuzzRig(t)
	sh := r.st.(*CLAM).shards[0]
	perKey := sh.bh.Config().CPU.BufferLookup
	fail := bitmapFaults(indexFaults, logFaults, partFaults)
	var cur tracedReq
	var phaseAEnd time.Duration
	read := sh.onHits.Read
	sh.onHits.Read = func(hits []int) error {
		cur.probes = 0
		for _, i := range hits {
			cur.probes = max(cur.probes, sh.batchRes[i].FlashReads)
		}
		return read(hits)
	}
	for i, ssd := range r.devs {
		n, role, capacity := 0, r.roles[i], ssd.Geometry().Capacity
		ssd.SetFault(func(op storage.Op, off int64, size int) error {
			i := n
			n++
			if role == roleIndex && op == storage.OpWrite {
				cur.indexWrote = true
			}
			q := cur
			q.dev, q.op, q.req, q.failed = role, op, i, fail(role, i, op)
			q.phaseA = cur.kind == fopGetBatch && sh.clock.Now() < phaseAEnd
			q.tail = op == storage.OpWrite && off+int64(size) == capacity
			if k := len(reqs) - 1; q.tail && role == rolePart && k >= 0 {
				p := reqs[k]
				q.spans = p.tail && p.dev == roleLog && p.opNum == q.opNum
			}
			reqs = append(reqs, q)
			if q.failed {
				return errFault
			}
			return nil
		})
	}
	opNum := 0
	fuzzOps(ops, func(kind, ki, win int) {
		cur = tracedReq{opNum: opNum, kind: kind}
		phaseAEnd = sh.clock.Now() + time.Duration(win)*perKey
		from := len(reqs)
		d.apply(kind, ki, win)
		for i := from; i < len(reqs); i++ {
			reqs[i].indexWrote = cur.indexWrote
		}
		opNum++
	})
	return reqs, d.o.errs
}

// TestFaultedOpsSeedPaths traces every targeted FuzzFaultedOps seed: its
// run must fail exactly one device request, its req, and that request
// must lie on its path; the driver op it failed in must fail.
func TestFaultedOpsSeedPaths(t *testing.T) {
	for i, seed := range targetedFaultSeeds {
		index, log, part := seed.bitmaps()
		reqs, errs := traceFaultedOps(t, seed.ops, index, log, part)
		var failed []tracedReq
		for _, q := range reqs {
			if q.failed {
				failed = append(failed, q)
			}
		}
		if len(failed) != 1 || errs != 1 {
			t.Fatalf("seed %d: %d requests failed, %d ops: %+v", i, len(failed), errs, failed)
		}
		f := failed[0]
		t.Logf("seed %d: %+v", i, f)
		if f.dev != seed.dev || f.req != seed.req || !seed.path.on(f) {
			t.Errorf("seed %d failed %+v, off its path %d at device %d's request %d", i, f, seed.path, seed.dev, seed.req)
		}
	}
}

// on reports whether traced request q lies on path p.
func (p faultPath) on(q tracedReq) bool {
	switch p {
	case pathLateRoundLogRead:
		return q.dev == roleLog && q.op == storage.OpRead && q.kind == fopGetBatch && q.probes >= 2
	case pathFlushingAppend:
		return q.dev == roleLog && q.op == storage.OpWrite && q.kind == fopPutBatch && q.indexWrote
	case pathStreamedIndexRead:
		return q.dev == roleIndex && q.op == storage.OpRead && q.kind == fopGetBatch && q.phaseA
	case pathHandoffLogRead:
		return q.dev == roleLog && q.op == storage.OpRead && q.kind == fopGetBatch && q.phaseA
	case pathAppendBehind:
		return q.dev == roleLog && q.op == storage.OpWrite && q.kind == fopPutBatch && !q.indexWrote
	case pathPartLogRead:
		return q.dev == rolePart && q.op == storage.OpRead && q.kind == fopGetBatch
	case pathPartLogWrite:
		return q.dev == rolePart && q.op == storage.OpWrite && q.kind == fopPutBatch && !q.tail
	case pathWrapAcrossMembers:
		return q.dev == rolePart && q.op == storage.OpWrite && q.spans
	}
	return false
}
