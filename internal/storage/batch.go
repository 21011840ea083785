package storage

import (
	"fmt"
	"time"

	"repro/internal/vclock"
)

// ReadReq is one read of a Device.ReadBatch submission: fill P from device
// offset Off. ReadAt is the one-request case.
//
// ReadBatch fills every request's buffer and returns the overlapped service
// time of the whole batch, advancing the device clock by that amount once —
// not by the sum of per-request latencies, which is what a loop over ReadAt
// would charge. Counters still account every request individually (Reads
// and BytesRead grow by the batch size), so I/O counts do not depend on how
// requests are grouped; only the time model does. It is the device half of
// the batched lookup pipeline: BufferHash gathers every flash probe a
// lookup batch needs, dedupes and sorts them, and submits them in one call.
//
// The overlap model is shared by all devices, and Queue is its one
// implementation:
//
//  1. Requests are served in the order given, which must be ascending
//     address order (NCQ / elevator): the caller sorts, and a submission
//     whose offsets go down anywhere fails with ErrUnsorted. Equal offsets
//     are allowed.
//  2. A request starting exactly where the previous request ended joins a
//     sequential run and pays no per-request fixed cost (no seek, no
//     command setup) — only the transfer cost.
//  3. The device has a fixed number of queue lanes, Geometry.Lanes
//     (channels, planes, or 1 for a single-actuator disk). Each request is
//     placed on the least-loaded lane, and the batch's service time is the
//     maximum lane total — lanes overlap, they do not add.
//
// A lone request starts a new run and occupies one lane, so it pays the
// fixed cost plus its transfer: the paper's linear I/O cost (§6.1). Devices
// that cannot overlap simply have one lane, where the model degenerates to
// the sorted serial sum (still a win on seek-bound media).
// Callers must treat request buffers as invalid on error.
//
// A request with View set carries only its range, Off and N, and reserves
// no buffer: the range must lie inside one device page, the device never
// writes the request's P, and on success it replaces P with a read-only
// slice of N bytes — a view of its backing SparseStore (see
// SparseStore.Read), or a buffer the device owns. The charged time, the
// Counters and the bytes seen are those of a copying read of the range.
// The slice is valid until the device's next write or trim, and the
// caller must not write through it. A View request crossing a page
// boundary fails the submission's checks. Every other request is a copy:
// its length is len(P), and the device fills P.
//
// A request with Through set is a read-through request: the host asks for
// its bytes only so that the request after it continues a sequential run
// (see PageReads.Submit), and reads none of them. The device model serves
// and prices it as any other request and counts it in Reads and
// BytesRead, and in Counters.ReadThrough too. The overlap model above is
// unchanged by it; reading through is the host's choice.
type ReadReq struct {
	P       []byte
	Off     int64
	N       int // a View request's length; copy requests use len(P)
	View    bool
	Through bool
}

// size returns the request's length in bytes.
func (r *ReadReq) size() int {
	if r.View {
		return r.N
	}
	return len(r.P)
}

// WriteReq is one write of a Device.WriteBatch submission: store P at
// device offset Off. WriteAt is the one-request case.
//
// WriteBatch stores every request's bytes and returns the overlapped
// service time of the whole batch under ReadReq's three-step overlap
// model, advancing the device clock by that amount once; Queue is its one
// implementation. Counters account every request individually (Writes and
// BytesWritten grow by the batch size). FTL bookkeeping (page mapping,
// garbage collection, erase-before-write) runs per request in address
// order, with any synchronous GC debt paid once by the whole submission,
// ahead of the overlapped transfers. It is the device half of the batched
// insert pipeline: BufferHash collects every incarnation image a batch's
// flushes produce and submits them in one call.
//
// Requests must ascend by address, respect the same alignment rules as
// WriteAt and not overlap one another.
type WriteReq struct {
	P   []byte
	Off int64
}

// Queue is the submission engine of the simulated devices, the one
// implementation of the overlap model (see ReadReq). Every read and write
// of the SSD and disk models is a Queue submission: before any
// state moves, the queue checks that the requests ascend by address,
// checks every request's range and alignment, and consults the fault hook;
// then it detects sequential runs, serves each request in the order given
// against the device's SparseStore, counts it, overlaps the per-request
// service times across the device's lanes, and advances the clock once by
// the submission's total.
//
// A model supplies only what differs between media: a CostFunc pricing
// one request, and optionally a begin hook that runs once a submission has
// passed its checks, before any request is served (an SSD's idle credit
// and garbage collection). Work that blocks the whole device rather than
// one lane is charged with Stall. A submission failing its checks charges
// nothing and moves no state. A Queue is not safe for concurrent use.
type Queue struct {
	// Counters is the device's I/O accounting. The queue counts every
	// request it serves and all service time it charges; a model adds
	// what only it sees (an SSD's erases, GC relocations and episodes).
	Counters Counters
	// Fault, if non-nil, is consulted for every request (see FaultFunc).
	Fault FaultFunc

	geom       Geometry
	writeAlign int
	store      *SparseStore
	clock      *vclock.Clock
	busyUntil  time.Duration   // clock reading when the last charge ended
	stall      time.Duration   // Stall total of the submission being served
	svc        []time.Duration // per-request service times of a submission
}

// CostFunc prices one request of a submission: the service time n bytes at
// off take on one lane. newRun is false when the request starts exactly
// where the previous one of the submission ended, so it continues a
// sequential run and skips the fixed command cost. A non-nil error fails
// the submission at this request: the requests before it stay served and
// charged, and neither it nor any later request is served.
type CostFunc func(off int64, n int, newRun bool) (time.Duration, error)

// NewQueue returns the queue of a device with geometry g, backed by store
// and charging clock. Reads are byte-granular; writes must be aligned to
// writeAlign bytes. Requests overlap across g.Lanes queue lanes.
func NewQueue(g Geometry, writeAlign int, store *SparseStore, clock *vclock.Clock) *Queue {
	return &Queue{geom: g, writeAlign: writeAlign, store: store, clock: clock}
}

// check validates one request of op: [off, off+n) must lie on the device
// and respect align, and the fault hook must let it pass.
func (q *Queue) check(op Op, off, n int64, align int) error {
	if err := CheckRange(q.geom, off, n, align); err != nil {
		return err
	}
	if q.Fault != nil {
		return q.Fault(op, off, int(n))
	}
	return nil
}

// Read serves reqs as one read submission and returns its service time.
// begin, if non-nil, runs once every request has passed its checks. cost
// prices each request, in the order given.
func (q *Queue) Read(reqs []ReadReq, begin func(), cost CostFunc) (time.Duration, error) {
	if len(reqs) == 0 {
		return 0, nil
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Off < reqs[i-1].Off {
			return 0, unsorted(i, reqs[i-1].Off, reqs[i].Off)
		}
	}
	ps := int64(q.geom.PageSize)
	for _, r := range reqs {
		n := int64(r.size())
		if r.View && n > 0 && r.Off/ps != (r.Off+n-1)/ps {
			return 0, fmt.Errorf("%w: view off=%d n=%d crosses a %d-byte page", ErrUnaligned, r.Off, n, ps)
		}
		if err := q.check(OpRead, r.Off, n, 1); err != nil {
			return 0, err
		}
	}
	q.start(len(reqs), begin)
	prevEnd := int64(-1)
	for i, r := range reqs {
		n := r.size()
		lat, err := cost(r.Off, n, r.Off != prevEnd)
		if err != nil {
			return q.finish(q.svc[:i], &q.Counters.ReadBusy), err
		}
		q.svc[i] = lat
		prevEnd = r.Off + int64(n)
		q.store.Read(&reqs[i])
		q.Counters.Reads++
		q.Counters.BytesRead += uint64(n)
		if r.Through {
			q.Counters.ReadThrough++
		}
	}
	return q.finish(q.svc, &q.Counters.ReadBusy), nil
}

// Write serves reqs as one write submission and returns its service time,
// as Read does.
func (q *Queue) Write(reqs []WriteReq, begin func(), cost CostFunc) (time.Duration, error) {
	if len(reqs) == 0 {
		return 0, nil
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Off < reqs[i-1].Off {
			return 0, unsorted(i, reqs[i-1].Off, reqs[i].Off)
		}
	}
	for _, r := range reqs {
		if err := q.check(OpWrite, r.Off, int64(len(r.P)), q.writeAlign); err != nil {
			return 0, err
		}
	}
	q.start(len(reqs), begin)
	prevEnd := int64(-1)
	for i, r := range reqs {
		lat, err := cost(r.Off, len(r.P), r.Off != prevEnd)
		if err != nil {
			return q.finish(q.svc[:i], &q.Counters.WriteBusy), err
		}
		q.svc[i] = lat
		prevEnd = r.Off + int64(len(r.P))
		q.store.WriteAt(r.P, r.Off)
		q.Counters.Writes++
		q.Counters.BytesWritten += uint64(len(r.P))
	}
	return q.finish(q.svc, &q.Counters.WriteBusy), nil
}

// unsorted reports request i of a submission starting below its
// predecessor.
func unsorted(i int, prev, off int64) error {
	return fmt.Errorf("%w: request %d at off=%d follows off=%d", ErrUnsorted, i, off, prev)
}

// start readies a checked submission of n requests and runs begin.
func (q *Queue) start(n int, begin func()) {
	q.stall = 0
	if cap(q.svc) < n {
		q.svc = make([]time.Duration, n)
	}
	q.svc = q.svc[:n]
	if begin != nil {
		begin()
	}
}

// finish charges a submission: its stall, then svc overlapped across the
// lanes. The total is service time, counted in BusyTime and in busy, the
// read or write share of it, and the clock advances by it.
func (q *Queue) finish(svc []time.Duration, busy *time.Duration) time.Duration {
	lat := q.stall + overlapLanes(svc, q.geom.Lanes)
	q.Counters.BusyTime += lat
	*busy += lat
	q.clock.Advance(lat)
	q.busyUntil = q.clock.Now()
	return lat
}

// Stall charges d to the submission being served ahead of its overlapped
// lanes: work that blocks the whole device, such as synchronous garbage
// collection. Begin and cost hooks call it.
func (q *Queue) Stall(d time.Duration) { q.stall += d }

// Idle returns how long the device has been idle: the virtual time since
// its last submission ended, or 0 if the clock has not moved on since.
func (q *Queue) Idle() time.Duration { return max(0, q.clock.Now()-q.busyUntil) }

// overlapLanes implements step 3 of the overlap model: distribute the
// per-request service times over `lanes` queue lanes, each request on the
// currently least-loaded lane, and return the maximum lane total. With one
// lane (or one request) this is the plain sum. svc is consumed in order,
// so Queue passes the service times in submission (address) order, with
// sequential runs discounted.
func overlapLanes(svc []time.Duration, lanes int) time.Duration {
	lanes = min(lanes, len(svc))
	if lanes <= 1 {
		var sum time.Duration
		for _, s := range svc {
			sum += s
		}
		return sum
	}
	var laneBuf [32]time.Duration // avoids a heap lane slice for real queue depths
	var lane []time.Duration
	if lanes <= len(laneBuf) {
		lane = laneBuf[:lanes]
	} else {
		lane = make([]time.Duration, lanes)
	}
	for _, s := range svc {
		least := 0
		for i := 1; i < lanes; i++ {
			if lane[i] < lane[least] {
				least = i
			}
		}
		lane[least] += s
	}
	var max time.Duration
	for _, t := range lane {
		if t > max {
			max = t
		}
	}
	return max
}
