package clam

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
)

// exhaustiveFaults is a flag of the clam test binary, not of the library:
// go test -run TestFaultEnumeration ./clam -args -exhaustive-faults.
var exhaustiveFaults = flag.Bool("exhaustive-faults", false,
	"TestFaultEnumeration fails every request of its uniform script, one run each, instead of the first few of each class")

// faultClass is the context a device request is issued in. Virtual time
// makes a script's run repeat exactly, so a fault-free trace names every
// request's class before any run fails it.
type faultClass struct {
	dev  faultRole
	op   storage.Op
	kind int // the fault op kind of the call that issued it
	// phaseA reports a GetBatch's or GetBatchU64's request while its
	// clock was below the least end of its phase A (see
	// leastPhaseACharge).
	phaseA bool
	// probes is, for a GetBatch's value-log read, the most index pages any
	// hit of its lookup read, 2 standing for two or more: a hit resolved
	// in round r read r pages.
	probes int
	// flushed reports that the call flushed an index buffer, which the
	// core holds in DRAM until a later call writes it.
	flushed bool
	// tail reports a write that ends at its partition's capacity, as a
	// wrap's padding write does on the log partition holding the log's last
	// unit, and the other's when the write spans both; spans reports a
	// tail write on SSD A's log partition whose call's previous request was
	// a tail write on SSD B's: the two shares of one write.
	tail, spans bool
}

var (
	roleNames = [numFaultRoles]string{"index-A", "index-B", "log-B", "log-A"}
	fopNames  = [numFaultOps]string{"PutU64", "GetU64", "DeleteU64", "FoundU64", "Put", "Get", "Delete", "ContainsOne",
		"PutBatchU64", "GetBatchU64", "DeleteBatchU64", "PutBatch", "GetBatch", "DeleteBatch", "ContainsBatch", "Flush"}
)

func (c faultClass) String() string {
	s := fmt.Sprintf("%s %s in %s", roleNames[c.dev], map[storage.Op]string{storage.OpRead: "read", storage.OpWrite: "write"}[c.op], fopNames[c.kind])
	for _, f := range []struct {
		on   bool
		name string
	}{{c.phaseA, "phaseA"}, {c.probes == 1, "probes=1"}, {c.probes == 2, "probes>=2"}, {c.flushed, "flushed"}, {c.tail, "tail"}, {c.spans, "spans"}} {
		if f.on {
			s += " " + f.name
		}
	}
	return s
}

// namedClasses are the request classes TestFaultEnumeration's scripts
// must reach, each a set of context tuples: paths on which the oracle has
// caught bugs, or that random op sequences seldom reach.
var namedClasses = []struct {
	name string
	on   func(c faultClass) bool
}{
	// A GetBatch's value-log record read, on SSD B, after a lookup that
	// resolved a hit in its second or a later probing round.
	{"late-round-log-read", func(c faultClass) bool {
		return c.dev == roleLogB && c.op == storage.OpRead && c.kind == fopGetBatch && c.probes == 2
	}},
	// A PutBatch's value-log write on SSD B in a chunk that also flushes
	// an index buffer.
	{"flushing-append", func(c faultClass) bool {
		return c.dev == roleLogB && c.op == storage.OpWrite && c.kind == fopPutBatch && c.flushed
	}},
	// A GetBatch's index read on SSD A while its phase A still runs: phase
	// A handed SSD A a lane group of its gathered pages.
	{"streamed-index-read", func(c faultClass) bool {
		return c.dev == roleIndexA && c.op == storage.OpRead && c.kind == fopGetBatch && c.phaseA
	}},
	// The same for a GetBatchU64.
	{"u64-streamed-index-read", func(c faultClass) bool {
		return c.dev == roleIndexA && c.op == storage.OpRead && c.kind == fopGetBatchU64 && c.phaseA
	}},
	// A GetBatch's value-log record read on SSD B after a lookup whose hits
	// read no index page: buffer hits alone.
	{"buffer-hit-log-read", func(c faultClass) bool {
		return c.dev == roleLogB && c.op == storage.OpRead && c.kind == fopGetBatch && c.probes == 0
	}},
	// A PutBatch's value-log write, a whole erase block on each SSD, on SSD
	// B in a chunk that flushes nothing, which a successful chunk leaves
	// running behind it.
	{"append-behind", func(c faultClass) bool {
		return c.dev == roleLogB && c.op == storage.OpWrite && c.kind == fopPutBatch && !c.flushed
	}},
	// A GetBatch's value-log record read on SSD A's log partition.
	{"part-log-read", func(c faultClass) bool {
		return c.dev == roleLogA && c.op == storage.OpRead && c.kind == fopGetBatch
	}},
	// A PutBatch's value-log write on SSD A's log partition.
	{"part-log-write", func(c faultClass) bool {
		return c.dev == roleLogA && c.op == storage.OpWrite && c.kind == fopPutBatch && !c.tail
	}},
	// SSD A's share of a wrap's padding write that spans both SSDs: SSD B's
	// share, served first, ended B's log units, and the failing share ends
	// A's.
	{"wrap-across-members", func(c faultClass) bool {
		return c.dev == roleLogA && c.op == storage.OpWrite && c.spans
	}},
	// A GetBatch's index read on SSD B's half of the index.
	{"index-b-read", func(c faultClass) bool {
		return c.dev == roleIndexB && c.op == storage.OpRead && c.kind == fopGetBatch
	}},
	// The write of index images an earlier call's flushes left held, which
	// a later call that flushes nothing issues once the shard's device
	// waits have done their serialization: their puts were acknowledged
	// before it fails.
	{"write-behind", func(c faultClass) bool {
		return c.dev <= roleIndexB && c.op == storage.OpWrite && !c.flushed && c.kind != fopFlush
	}},
	// Such a write issued by a lookup call, as dedup-ingest's GetBatch
	// windows issue them.
	{"write-behind-in-get", func(c faultClass) bool {
		return c.dev <= roleIndexB && c.op == storage.OpWrite && !c.flushed && isLookup(c.kind)
	}},
	// An index write in a call that flushes: a second flush writes the held
	// set before it holds its own image.
	{"flushing-index-write", func(c faultClass) bool {
		return c.dev <= roleIndexB && c.op == storage.OpWrite && c.flushed
	}},
}

// isLookup reports whether fault op kind k is a lookup call.
func isLookup(k int) bool {
	switch k {
	case fopGetU64, fopFoundU64, fopGet, fopContainsOne, fopGetBatchU64, fopGetBatch, fopContainsBatch:
		return true
	}
	return false
}

// scriptOp is a fault op: its kind, its first key's index, its window
// and the key-index step of its window (0 means the driver's 7).
type scriptOp struct{ kind, ki, win, stride int }

// faultScript is a fixed op sequence on the rig it runs on.
type faultScript struct {
	name string
	open func(t testing.TB) (*faultRig, *faultDriver)
	ops  []scriptOp
	// exhaustive: -exhaustive-faults fails every one of its requests.
	exhaustive bool
}

// faultScripts returns TestFaultEnumeration's scripts. The first two run
// on FuzzFaultedOps' rig and are its seeds: a uniform random sequence,
// and a put-heavy one, which flushes index buffers while it appends and
// writes held images behind later calls. The third puts 12,000 keys of
// each family into a flash-heavy store in 300-key batches and then reads
// two 300-key windows of each: a lookup call writes the puts' last held
// images behind, which the fuzz rig's short windows do not reach. A put
// window's records lie together in the value log, so its read windows
// stride 1,777 keys (prime to 12,000) through the universe instead of 7:
// each reads records of many put windows, on pages with small holes
// between them, which its record reads read through.
func faultScripts() []faultScript {
	flash := faultScript{name: "flash-heavy", open: func(t testing.TB) (*faultRig, *faultDriver) {
		r := openFaultCLAM(t, 2<<20, 4<<20, WithMemory(144<<10), WithBufferKB(16), WithSeed(11))
		return r, newFaultDriver(t, r, 12000, 0, 300)
	}}
	for base := 0; base < 12000; base += 2100 {
		for k := range 7 {
			flash.ops = append(flash.ops, scriptOp{fopPutBatch, base + k, 300, 0}, scriptOp{fopPutBatchU64, base + k, 300, 0})
		}
	}
	for ki := 0; ki < 14; ki += 7 {
		flash.ops = append(flash.ops, scriptOp{fopGetBatch, ki, 300, 1777}, scriptOp{fopGetBatchU64, ki, 300, 1777})
	}
	return []faultScript{
		{name: "uniform", open: openFuzzRig, ops: decodeOps(uniformOps()), exhaustive: true},
		{name: "put-heavy", open: openFuzzRig, ops: decodeOps(putHeavyOps())},
		flash,
	}
}

// uniformOps returns a FuzzFaultedOps op sequence of 400 uniform random
// ops: the 60th 1,200-byte draw of its source, the first to reach every
// named class that no other script reaches and to read through holes on
// both the index and the value log.
func uniformOps() []byte {
	rng := rand.New(rand.NewSource(7))
	ops := make([]byte, 3*400)
	for range 60 {
		rng.Read(ops)
	}
	return ops
}

// putHeavyOps returns a FuzzFaultedOps op sequence of 400 ops, each
// PutBatchU64 or PutBatch with probability two thirds and a random op
// otherwise, over random keys and windows.
func putHeavyOps() []byte {
	rng := rand.New(rand.NewSource(27))
	ops := make([]byte, 3*400)
	rng.Read(ops)
	for i := 0; i < len(ops); i += 3 {
		if rng.Intn(3) < 2 {
			ops[i] = []byte{fopPutBatchU64, fopPutBatch}[rng.Intn(2)]
		}
	}
	return ops
}

// tracedReq is a partition's request of a script's run, with its class.
type tracedReq struct {
	faultClass
	req    int // the request, counted per partition in issue order
	opNum  int // the script op in progress, counted from 0
	failed bool
	// logBWrites counts SSD B's log writes served when it was issued.
	logBWrites uint64
}

// faultRun is a traced run of a fault script.
type faultRun struct {
	reqs      []tracedReq
	failedOps []int // the ops that returned an error, a failed read-back counted as its op
	st        Stats
}

// runFaultScript runs s on a fresh rig, failing the requests fail picks,
// and traces every partition's request with its class. Right after an op
// that fails it reads the op's window back (see readBack). A call whose
// value-log write failed must have waited for the log's submissions: each
// SSD's clock may lead the shard clock by no more than it did when the
// call began plus the index writes the call issued to it, which no call
// waits for.
func runFaultScript(t *testing.T, s faultScript, fail func(role faultRole, i int) bool) faultRun {
	r, d := s.open(t)
	sh := r.st.(*CLAM).shards[0]
	perKey := leastPhaseACharge(sh)
	var run faultRun
	var cur tracedReq
	var phaseAEnd time.Duration
	for i, ssd := range r.devs {
		n, role, capacity := 0, r.roles[i], ssd.Geometry().Capacity
		ssd.SetFault(func(op storage.Op, off int64, size int) error {
			q := cur
			q.dev, q.op, q.req, q.failed = role, op, n, fail(role, n)
			n++
			q.phaseA = (q.kind == fopGetBatch || q.kind == fopGetBatchU64) && sh.clock.Now() < phaseAEnd
			q.tail = op == storage.OpWrite && off+int64(size) == capacity
			if role >= roleLogB && op == storage.OpRead && q.kind == fopGetBatch {
				for _, res := range sh.batchRes {
					if res.Found {
						q.probes = max(q.probes, min(res.FlashReads, 2))
					}
				}
			}
			if k := len(run.reqs) - 1; q.tail && role == roleLogA && k >= 0 {
				p := run.reqs[k]
				q.spans = p.tail && p.dev == roleLogB && p.opNum == q.opNum
			}
			q.logBWrites = r.devs[roleLogB].Counters().Writes
			run.reqs = append(run.reqs, q)
			if q.failed {
				return errFault
			}
			return nil
		})
	}
	// lead returns how far each SSD's clock, index A's then B's, runs
	// ahead of the shard clock, and the write time its index half took on.
	lead := func() (ahead, wrote [2]time.Duration) {
		for x, c := range sh.idx.clocks {
			ahead[x] = max(c.Now()-sh.clock.Now(), 0)
			wrote[x] = r.devs[roleIndexA+faultRole(x)].Counters().WriteBusy
		}
		return ahead, wrote
	}
	// apply runs op as script op n and reports whether it failed.
	apply := func(n int, op scriptOp) bool {
		cur = tracedReq{opNum: n, faultClass: faultClass{kind: op.kind}}
		d.stride = op.stride
		phaseAEnd = sh.clock.Now() + time.Duration(op.win)*perKey
		from, flushes, errs := len(run.reqs), sh.bh.Stats().Flushes, d.o.errs
		ahead0, wrote0 := lead()
		d.apply(op.kind, op.ki, op.win)
		flushed := sh.bh.Stats().Flushes > flushes
		for i := from; i < len(run.reqs); i++ {
			q := &run.reqs[i]
			q.flushed = flushed
			if !q.failed || q.dev < roleLogB || q.op != storage.OpWrite {
				continue
			}
			ahead, wrote := lead()
			for x := range ahead {
				if ahead[x] > ahead0[x]+wrote[x]-wrote0[x] {
					t.Errorf("%s op %d (%v): the call whose log write failed left SSD %c %v ahead of the shard clock, %v ahead before it and %v of index writes since",
						s.name, n, q.faultClass, 'A'+x, ahead[x], ahead0[x], wrote[x]-wrote0[x])
				}
			}
		}
		return d.o.errs > errs
	}
	for n, op := range s.ops {
		if !apply(n, op) {
			continue
		}
		run.failedOps = append(run.failedOps, n)
		if apply(n, readBack(op)) {
			run.failedOps = append(run.failedOps, n)
		}
	}
	run.st = r.st.Stats()
	return run
}

// readBack is the lookup of op's window: a GetBatchU64 of a U64 op's keys
// and a GetBatch of a byte op's or a Flush's, one key for a per-key op.
func readBack(op scriptOp) scriptOp {
	if op.kind < fopPutBatchU64 {
		op.win = 1
	}
	switch op.kind {
	case fopPutU64, fopGetU64, fopDeleteU64, fopFoundU64, fopPutBatchU64, fopGetBatchU64, fopDeleteBatchU64:
		op.kind = fopGetBatchU64
	default:
		op.kind = fopGetBatch
	}
	return op
}

// TestFaultEnumeration traces each fault script fault-free and groups its
// requests into classes by context (faultClass). For each class it
// re-runs the script with exactly one of the class's first three requests
// failing, one run each, on the first script that reaches the class; with
// -exhaustive-faults the uniform script fails every one of its requests.
// The op the trace put that request in must be the first and only op that
// fails, every answer must keep the oracle's contract, and SSD A's share
// of a write that spans both SSDs must fail after SSD B's share was
// served (see runFaultScript for the clock check). Every named class must
// be reached, and the scripts must read through at least minReadThrough
// pages of holes on the index and on the log, and probe held images.
func TestFaultEnumeration(t *testing.T) {
	const m = 3 // requests failed per class
	seen := map[faultClass]bool{}
	reached := make([]int, len(namedClasses))
	var runs int
	var sum Stats
	for _, s := range faultScripts() {
		trace := runFaultScript(t, s, noFaults)
		if len(trace.failedOps) != 0 {
			t.Fatalf("%s: ops %v failed with no fault", s.name, trace.failedOps)
		}
		count := map[faultClass]int{}
		var picks []tracedReq
		for _, q := range trace.reqs {
			for i, nc := range namedClasses {
				if nc.on(q.faultClass) {
					reached[i]++
				}
			}
			if (s.exhaustive && *exhaustiveFaults) || (!seen[q.faultClass] && count[q.faultClass] < m) {
				picks = append(picks, q)
			}
			count[q.faultClass]++
		}
		classes := slices.SortedFunc(func(yield func(faultClass) bool) {
			for c := range count {
				if !yield(c) {
					return
				}
			}
		}, func(a, b faultClass) int { return strings.Compare(a.String(), b.String()) })
		for _, c := range classes {
			t.Logf("%s: %5d %v%s", s.name, count[c], c, map[bool]string{true: " (enumerated earlier)"}[seen[c]])
		}
		for c := range count {
			seen[c] = true
		}
		st := trace.st
		t.Logf("%s: %d ops, %d requests, %d classes, %d runs; %d index and %d log pages read through, %d probes of held images",
			s.name, len(s.ops), len(trace.reqs), len(count), len(picks), st.Device.ReadThrough, st.ValueDevice.ReadThrough, st.Core.PendingProbes)
		sum.Device.ReadThrough += st.Device.ReadThrough
		sum.ValueDevice.ReadThrough += st.ValueDevice.ReadThrough
		sum.Core.PendingProbes += st.Core.PendingProbes
		runs += len(picks)
		t.Run(s.name, func(t *testing.T) {
			for _, p := range picks {
				failOne(t, s, p)
			}
		})
	}
	t.Logf("%d classes, %d runs", len(seen), runs)
	for i, nc := range namedClasses {
		t.Logf("%-24s %5d requests", nc.name, reached[i])
		if reached[i] == 0 {
			t.Errorf("no script reached class %s", nc.name)
		}
	}
	t.Logf("the scripts read through %d index and %d log pages and probed held images %d times",
		sum.Device.ReadThrough, sum.ValueDevice.ReadThrough, sum.Core.PendingProbes)
	if sum.Device.ReadThrough < minReadThrough || sum.ValueDevice.ReadThrough < minReadThrough || sum.Core.PendingProbes == 0 {
		t.Errorf("the scripts read through %d index and %d log pages and probed held images %d times; want at least %d pages on each and a probe",
			sum.Device.ReadThrough, sum.ValueDevice.ReadThrough, sum.Core.PendingProbes, minReadThrough)
	}
}

// minReadThrough is the fewest index pages, and the fewest log pages, the
// fault scripts must read through: a margin, so that a change that moves
// a few pages does not fail the reach check with no fault.
const minReadThrough = 10

// noFaults fails no request.
func noFaults(faultRole, int) bool { return false }

// namedClass returns the predicate of the named class called name.
func namedClass(t *testing.T, name string) func(faultClass) bool {
	t.Helper()
	for _, nc := range namedClasses {
		if nc.name == name {
			return nc.on
		}
	}
	t.Fatalf("no named class %s", name)
	return nil
}

// reachNamed traces the fault script called script fault-free and returns
// how many of its requests lie in each named class of names, and the
// store's final Stats.
func reachNamed(t *testing.T, script string, names ...string) ([]int, Stats) {
	t.Helper()
	i := slices.IndexFunc(faultScripts(), func(s faultScript) bool { return s.name == script })
	if i < 0 {
		t.Fatalf("no fault script %s", script)
	}
	run := runFaultScript(t, faultScripts()[i], noFaults)
	counts := make([]int, len(names))
	for k, name := range names {
		on := namedClass(t, name)
		for _, q := range run.reqs {
			if on(q.faultClass) {
				counts[k]++
			}
		}
	}
	return counts, run.st
}

// failNamedClasses traces the fault scripts fault-free, in order, and for
// each named class of names re-runs the first script that reaches it once
// for each of the class's first m requests on it, with that request alone
// failing (see failOne). Every class must be reached.
func failNamedClasses(t *testing.T, names []string, m int) {
	t.Helper()
	left := map[string]func(faultClass) bool{}
	for _, name := range names {
		left[name] = namedClass(t, name)
	}
	for _, s := range faultScripts() {
		if len(left) == 0 {
			break
		}
		trace := runFaultScript(t, s, noFaults)
		for _, name := range names {
			on, ok := left[name]
			if !ok {
				continue
			}
			var picks []tracedReq
			for _, q := range trace.reqs {
				if on(q.faultClass) && len(picks) < m {
					picks = append(picks, q)
				}
			}
			if len(picks) == 0 {
				continue
			}
			delete(left, name)
			t.Logf("%s: failing %d of its requests on the %s script", name, len(picks), s.name)
			for _, p := range picks {
				failOne(t, s, p)
			}
		}
	}
	for _, name := range names {
		if _, ok := left[name]; ok {
			t.Errorf("no fault script reached class %s", name)
		}
	}
}

// TestFaultedOpsSeedPaths fails, for each named class, its first request
// on the first fault script that reaches it, alone: the op the trace put
// that request in must be the first and only op that fails, and every
// answer must keep the oracle's contract. TestFaultEnumeration fails
// every class, named or not, and TestFaultOracle's class rows fail the
// first three requests of theirs.
func TestFaultedOpsSeedPaths(t *testing.T) {
	var names []string
	for _, nc := range namedClasses {
		names = append(names, nc.name)
	}
	failNamedClasses(t, names, 1)
}

// TestFuzzRigReachesHandOversAndReadThrough traces FuzzFaultedOps' uniform
// seed sequence fault-free on its rig: phase A must hand an idle SSD index
// pages (a streamed-index-read request), and submissions of more pages
// than the SSDs' lanes must read through holes, on the index and on the
// value log, so that the seed's faults reach those requests too.
func TestFuzzRigReachesHandOversAndReadThrough(t *testing.T) {
	n, st := reachNamed(t, "uniform", "streamed-index-read")
	t.Logf("%d index reads handed over in phase A; %d index and %d log pages read through", n[0], st.Device.ReadThrough, st.ValueDevice.ReadThrough)
	if n[0] == 0 || st.Device.ReadThrough == 0 || st.ValueDevice.ReadThrough == 0 {
		t.Fatalf("the uniform sequence reached %d phase-A hand-over reads, %d index and %d log read-through pages; want each above zero",
			n[0], st.Device.ReadThrough, st.ValueDevice.ReadThrough)
	}
}

// TestPutHeavySeedFlushes traces FuzzFaultedOps' put-heavy seed sequence
// fault-free on its rig: its PutBatch windows must flush index buffers
// while they write the value log, some later call must write held index
// images behind (flushing-append and write-behind requests), and lookups
// must probe held images, so that the seed's faults reach all three.
func TestPutHeavySeedFlushes(t *testing.T) {
	n, st := reachNamed(t, "put-heavy", "flushing-append", "write-behind")
	t.Logf("%d flushes; %d flushing appends, %d index writes behind; %d probes of held images",
		st.Core.Flushes, n[0], n[1], st.Core.PendingProbes)
	if n[0] == 0 || n[1] == 0 || st.Core.PendingProbes == 0 {
		t.Fatalf("the put-heavy sequence reached %d flushing appends, %d writes behind and %d held-image probes; want each above zero",
			n[0], n[1], st.Core.PendingProbes)
	}
}

// failOne re-runs s with request p alone failing and checks that it fails
// p's op alone.
func failOne(t *testing.T, s faultScript, p tracedReq) {
	t.Helper()
	run := runFaultScript(t, s, func(role faultRole, i int) bool { return role == p.dev && i == p.req })
	var failed []int
	for k, q := range run.reqs {
		if !q.failed {
			continue
		}
		failed = append(failed, k)
		if q.spans && (k == 0 || q.logBWrites == run.reqs[k-1].logBWrites) {
			t.Errorf("%s: SSD B's share of the spanning write that failed on SSD A (request %d of op %d) was not served", s.name, p.req, p.opNum)
		}
	}
	if len(failed) != 1 || run.reqs[failed[0]].opNum != p.opNum || !slices.Equal(run.failedOps, []int{p.opNum}) {
		t.Errorf("%s: failing request %d of %s, in op %d (%s): %d requests failed, ops %v failed",
			s.name, p.req, roleNames[p.dev], p.opNum, p.faultClass, len(failed), run.failedOps)
	}
}

// leastPhaseACharge is the least CPU charge sh's phase A lands for a key:
// a repeat's dedupe probe, a read run's hot-entry cache probe, a Bloom
// query, or the buffer probe of a key whose super table has no filter to
// ask. A chunk's phase A runs at least until the shard clock passes the
// chunk's start plus this charge for each of its keys; a key the staging
// filter screens is charged its query alone, so BufferLookup is no such
// bound.
func leastPhaseACharge(sh *shard) time.Duration {
	c := sh.bh.Config().CPU
	return min(c.BatchCoalesce, c.CacheProbe, c.BloomQuery, c.BloomQueryNaive, c.BufferLookup)
}
