package clam

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/hashutil"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// The fault oracle drives both key families through per-key and batch
// calls while the index and value-log devices fail reads and writes, and
// checks the paper's lookup contract on every answer: a hit carries the
// latest acknowledged value of its key, or the value of a later op that
// returned an error — never an older value, and never a value for a key
// whose latest acknowledged op deleted it. A miss is always allowed: a
// failed flush may lose acknowledged values, and eviction and value-log
// wrap lose them by design.

var errFault = errors.New("injected device fault")

// faultModel is the oracle's view of one key: the sequence number of its
// latest acknowledged put (0 when absent or deleted) and the sequence
// numbers of failed puts issued since.
type faultModel struct {
	acked  uint64
	failed []uint64
}

// faultOracle tracks every key of both families (U64 keys as "u<key>",
// byte keys as their string) and counts what it checked.
type faultOracle struct {
	t      testing.TB
	keys   map[string]*faultModel
	seq    uint64
	hits   int
	probes int // lookups of keys with an acknowledged value
	errs   int
}

func newFaultOracle(t testing.TB) *faultOracle {
	return &faultOracle{t: t, keys: map[string]*faultModel{}}
}

func (o *faultOracle) model(k string) *faultModel {
	m := o.keys[k]
	if m == nil {
		m = &faultModel{}
		o.keys[k] = m
	}
	return m
}

// put records the outcome of a put of value number seq.
func (o *faultOracle) put(k string, seq uint64, err error) {
	m := o.model(k)
	if err != nil {
		m.failed = append(m.failed, seq)
		return
	}
	m.acked, m.failed = seq, m.failed[:0]
}

// del records the outcome of a delete; a failed delete may or may not
// have applied, which the miss allowance already covers.
func (o *faultOracle) del(k string, err error) {
	if err == nil {
		m := o.model(k)
		m.acked, m.failed = 0, m.failed[:0]
	}
}

// check validates one lookup answer. seq is the value number a lookup
// returned, or 0 for an existence probe, which carries no value.
func (o *faultOracle) check(what, k string, found bool, seq uint64) {
	o.t.Helper()
	m := o.model(k)
	if m.acked != 0 {
		o.probes++
		if found {
			o.hits++
		}
	}
	if !found {
		return
	}
	ok := m.acked != 0 && (seq == 0 || seq == m.acked)
	for _, f := range m.failed {
		ok = ok || seq == 0 || seq == f
	}
	if !ok {
		o.t.Fatalf("%s(%s) hit value #%d; latest acknowledged #%d, failed since %v", what, k, seq, m.acked, m.failed)
	}
}

// faultSchedule decides, per device request in issue order, whether it
// fails. The random test draws from a seeded source; the fuzz target
// reads a bitmap per device role from its input.
type faultSchedule struct {
	role faultRole
	n    int
	fail func(role faultRole, i int, op storage.Op) bool
}

func (s *faultSchedule) hook(op storage.Op, _ int64, _ int) error {
	i := s.n
	s.n++
	if s.fail(s.role, i, op) {
		return errFault
	}
	return nil
}

// faultRole is what an SSD partition of a fault rig serves, and where.
type faultRole int

// A kind-opened shard's four partitions (see openShard), in the order of
// its index's and then its value log's members.
const (
	roleIndexA faultRole = iota // the index's half on SSD A
	roleIndexB                  // the index's half on SSD B
	roleLogB                    // the value log's half on SSD B
	roleLogA                    // the value log's half on SSD A
	numFaultRoles
)

// faultRig is a store under test plus every SSD partition behind it, with
// its role: per shard the four of faultRole's order, so that a one-shard
// rig's devs[role] is that role's partition.
type faultRig struct {
	st    Store
	devs  []*ssd.SSD
	roles []faultRole
}

// addShard adds a shard's partitions, which a kind-opened store builds
// bare. Every rig's shard has all four.
func (r *faultRig) addShard(t testing.TB, sh *shard) {
	t.Helper()
	parts := append(slices.Clone(sh.idx.parts), sh.logs.parts...)
	if len(parts) != int(numFaultRoles) {
		t.Fatalf("a fault rig's shard has %d SSD partitions, want %d", len(parts), numFaultRoles)
	}
	for role, p := range parts {
		r.devs = append(r.devs, p)
		r.roles = append(r.roles, faultRole(role))
	}
}

// arm installs the schedule on every device (nil disarms). Each device
// counts its own requests, so that its schedule does not move with
// another's request count, and devices of different shards run
// concurrently; fail, given the device's role and its request's number,
// must be a pure function of its arguments.
func (r *faultRig) arm(fail func(role faultRole, i int, op storage.Op) bool) {
	for dev, d := range r.devs {
		if fail == nil {
			d.SetFault(nil)
			continue
		}
		s := &faultSchedule{role: r.roles[dev], fail: fail}
		d.SetFault(s.hook)
	}
}

// openFaultCLAM opens a kind-built single CLAM on Intel SSDs and reaches
// its SSD partitions, devs[role] each.
func openFaultCLAM(t testing.TB, flash, vlog int64, opts ...Option) *faultRig {
	t.Helper()
	c := openCLAMT(t, append([]Option{WithDevice(IntelSSD), WithValueLog(vlog), WithFlash(flash)}, opts...)...)
	r := &faultRig{st: c}
	r.addShard(t, c.shards[0])
	return r
}

// openFaultSharded opens a kind-built Sharded store and reaches each
// shard's SSD partitions.
func openFaultSharded(t testing.TB, opts ...Option) *faultRig {
	t.Helper()
	s := openShardedT(t, append([]Option{WithDevice(IntelSSD)}, opts...)...)
	r := &faultRig{st: s}
	for _, sh := range s.shards {
		r.addShard(t, sh)
	}
	return r
}

// faultOp kinds: per-key ops of both families, batch ops over a window of
// keys, and Flush. The codes are the fuzz corpus's op bytes, so they keep
// their positions: the two per-key existence probes are GetU64's found
// flag and a one-key ContainsBatch.
const (
	fopPutU64 = iota
	fopGetU64
	fopDeleteU64
	fopFoundU64
	fopPut
	fopGet
	fopDelete
	fopContainsOne
	fopPutBatchU64
	fopGetBatchU64
	fopDeleteBatchU64
	fopPutBatch
	fopGetBatch
	fopDeleteBatch
	fopContainsBatch
	fopFlush
	numFaultOps
)

// faultDriver applies ops to a rig and feeds every outcome to the oracle.
type faultDriver struct {
	r       *faultRig
	o       *faultOracle
	nKeys   int
	valPad  int // byte values are "#<seq>" padded to at least this length
	maxWin  int
	byteKey [][]byte
}

func newFaultDriver(t testing.TB, r *faultRig, nKeys, valPad, maxWin int) *faultDriver {
	d := &faultDriver{r: r, o: newFaultOracle(t), nKeys: nKeys, valPad: valPad, maxWin: maxWin}
	d.byteKey = make([][]byte, nKeys)
	for i := range d.byteKey {
		d.byteKey[i] = []byte(fmt.Sprintf("key-%d", i))
	}
	return d
}

// u64Key spreads key index i over the whole key space (Sharded routes by
// high bits).
func u64Key(i int) uint64 { return (uint64(i) + 1) * 0x9e3779b97f4a7c15 }

func (d *faultDriver) uName(i int) string { return "u" + strconv.Itoa(i) }

func (d *faultDriver) value(seq uint64) []byte {
	v := []byte("#" + strconv.FormatUint(seq, 10))
	for len(v) < d.valPad {
		v = append(v, '.')
	}
	return v
}

func parseValue(t testing.TB, v []byte) uint64 {
	t.Helper()
	end := 1
	for end < len(v) && v[end] != '.' {
		end++
	}
	seq, err := strconv.ParseUint(string(v[1:end]), 10, 64)
	if err != nil || v[0] != '#' {
		t.Fatalf("undecodable value %q", v)
	}
	return seq
}

func (d *faultDriver) next() uint64 { d.o.seq++; return d.o.seq }

func (d *faultDriver) failed(err error) {
	if err != nil {
		if !errors.Is(err, errFault) {
			d.o.t.Fatalf("unexpected error: %v", err)
		}
		d.o.errs++
	}
}

// apply runs one op on key index ki (the first key of a batch window of
// win keys, wrapping around the universe).
func (d *faultDriver) apply(kind, ki, win int) {
	t, st, o := d.o.t, d.r.st, d.o
	ctx := context.Background()
	window := func() []int {
		idx := make([]int, win)
		for j := range idx {
			idx[j] = (ki + j*7) % d.nKeys // duplicates appear once win > nKeys/7
		}
		return idx
	}
	switch kind {
	case fopPutU64:
		seq := d.next()
		err := st.PutU64(u64Key(ki), seq)
		d.failed(err)
		o.put(d.uName(ki), seq, err)
	case fopGetU64:
		v, ok, err := st.GetU64(u64Key(ki))
		d.failed(err)
		if err == nil {
			o.check("GetU64", d.uName(ki), ok, v)
		}
	case fopDeleteU64:
		err := st.DeleteU64(u64Key(ki))
		d.failed(err)
		o.del(d.uName(ki), err)
	case fopFoundU64:
		_, ok, err := st.GetU64(u64Key(ki))
		d.failed(err)
		if err == nil {
			o.check("GetU64.found", d.uName(ki), ok, 0)
		}
	case fopPut:
		seq := d.next()
		err := st.Put(d.byteKey[ki], d.value(seq))
		d.failed(err)
		o.put(string(d.byteKey[ki]), seq, err)
	case fopGet:
		v, ok, err := st.Get(d.byteKey[ki])
		d.failed(err)
		if err == nil {
			var seq uint64
			if ok {
				seq = parseValue(t, v)
			}
			o.check("Get", string(d.byteKey[ki]), ok, seq)
		}
	case fopDelete:
		err := st.Delete(d.byteKey[ki])
		d.failed(err)
		o.del(string(d.byteKey[ki]), err)
	case fopContainsOne:
		found, err := st.ContainsBatch(ctx, [][]byte{d.byteKey[ki]})
		d.failed(err)
		if err == nil {
			o.check("ContainsBatch", string(d.byteKey[ki]), found[0], 0)
		}
	case fopPutBatchU64:
		idx := window()
		keys, vals := make([]uint64, win), make([]uint64, win)
		for j, i := range idx {
			keys[j], vals[j] = u64Key(i), d.next()
		}
		err := st.PutBatchU64(ctx, keys, vals)
		d.failed(err)
		for j, i := range idx {
			o.put(d.uName(i), vals[j], err)
		}
	case fopGetBatchU64:
		idx := window()
		keys := make([]uint64, win)
		for j, i := range idx {
			keys[j] = u64Key(i)
		}
		vals, found, err := st.GetBatchU64(ctx, keys)
		d.failed(err)
		if err == nil {
			for j, i := range idx {
				o.check("GetBatchU64", d.uName(i), found[j], vals[j])
			}
		}
	case fopDeleteBatchU64:
		idx := window()
		keys := make([]uint64, win)
		for j, i := range idx {
			keys[j] = u64Key(i)
		}
		err := st.DeleteBatchU64(ctx, keys)
		d.failed(err)
		for _, i := range idx {
			o.del(d.uName(i), err)
		}
	case fopPutBatch:
		idx := window()
		keys, vals, seqs := make([][]byte, win), make([][]byte, win), make([]uint64, win)
		for j, i := range idx {
			seqs[j] = d.next()
			keys[j], vals[j] = d.byteKey[i], d.value(seqs[j])
		}
		err := st.PutBatch(ctx, keys, vals)
		d.failed(err)
		for j, i := range idx {
			o.put(string(d.byteKey[i]), seqs[j], err)
		}
	case fopGetBatch:
		idx := window()
		keys := make([][]byte, win)
		for j, i := range idx {
			keys[j] = d.byteKey[i]
		}
		vals, found, err := st.GetBatch(ctx, keys)
		d.failed(err)
		if err == nil {
			for j, i := range idx {
				var seq uint64
				if found[j] {
					seq = parseValue(t, vals[j])
				}
				o.check("GetBatch", string(d.byteKey[i]), found[j], seq)
			}
		}
	case fopDeleteBatch:
		idx := window()
		keys := make([][]byte, win)
		for j, i := range idx {
			keys[j] = d.byteKey[i]
		}
		err := st.DeleteBatch(ctx, keys)
		d.failed(err)
		for _, i := range idx {
			o.del(string(d.byteKey[i]), err)
		}
	case fopContainsBatch:
		idx := window()
		keys := make([][]byte, win)
		for j, i := range idx {
			keys[j] = d.byteKey[i]
		}
		found, err := st.ContainsBatch(ctx, keys)
		d.failed(err)
		if err == nil {
			for j, i := range idx {
				o.check("ContainsBatch", string(d.byteKey[i]), found[j], 0)
			}
		}
	case fopFlush:
		d.failed(st.Flush())
	}
}

// runRandom applies nOps seeded ops: mostly per-key ops, with ragged batch
// windows mixed in.
func (d *faultDriver) runRandom(seed int64, nOps int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nOps; i++ {
		kind := rng.Intn(numFaultOps)
		if kind == fopFlush && rng.Intn(8) != 0 {
			kind = fopGetU64 // keep flushes rare
		}
		d.apply(kind, rng.Intn(d.nKeys), 1+rng.Intn(d.maxWin))
	}
}

// TestFaultOracle runs the oracle on single and sharded stores with
// pseudo-random read and write faults: 2% of reads and a third of writes
// fail (a store issues far fewer writes than reads), on every SSD
// partition or, where a row names one, on that partition alone. Each row
// checks that faults actually failed ops and that the store still
// answered: at least a fifth of the lookups of acknowledged keys hit.
func TestFaultOracle(t *testing.T) {
	rows := []struct {
		name  string
		open  func(t *testing.T) *faultRig
		pad   int
		wraps bool
		only  []faultRole // the partitions faulted, or nil for all
	}{
		{"clam/fifo", func(t *testing.T) *faultRig {
			return openFaultCLAM(t, 2<<20, 4<<20, WithMemory(512<<10), WithBufferKB(16), WithSeed(3))
		}, 0, false, nil},
		{"clam/update", func(t *testing.T) *faultRig {
			return openFaultCLAM(t, 2<<20, 4<<20, WithMemory(512<<10), WithBufferKB(16),
				WithPolicy(UpdateBased), WithSeed(4))
		}, 0, false, nil},
		{"clam/priority", func(t *testing.T) *faultRig {
			return openFaultCLAM(t, 2<<20, 4<<20, WithMemory(512<<10), WithBufferKB(16),
				WithPolicy(PriorityBased), WithRetain(func(_, v uint64) bool { return v%2 == 0 }), WithSeed(7))
		}, 0, false, nil},
		{"clam/vlog-wrap", func(t *testing.T) *faultRig {
			return openFaultCLAM(t, 2<<20, 256<<10, WithMemory(512<<10), WithBufferKB(16), WithSeed(5))
		}, 200, true, nil},
		{"sharded", func(t *testing.T) *faultRig {
			return openFaultSharded(t, WithFlash(4<<20), WithMemory(1<<20), WithValueLog(4<<20),
				WithBufferKB(16), WithShards(4), WithWorkers(2), withBatchChunk(64), WithSeed(6))
		}, 0, false, nil},
		// SSD B's half of the index alone: its probes, image reads and
		// flushes fail while SSD A's half serves.
		{"clam/index-ssd-b", func(t *testing.T) *faultRig {
			return openFaultCLAM(t, 2<<20, 4<<20, WithMemory(512<<10), WithBufferKB(16), WithSeed(18))
		}, 0, false, []faultRole{roleIndexB}},
	}
	for ri, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := row.open(t)
			d := newFaultDriver(t, r, 3000, row.pad, 300)
			// Fault-free warm-up, then faulted and fault-free stretches.
			d.runRandom(int64(100+ri), 1500)
			for phase := 0; phase < 4; phase++ {
				seed := uint64(ri)<<8 | uint64(phase)
				r.arm(func(role faultRole, i int, op storage.Op) bool {
					if row.only != nil && !slices.Contains(row.only, role) {
						return false
					}
					h := hashutil.Mix64(seed<<32 ^ uint64(i))
					if op == storage.OpWrite {
						return h%3 == 0
					}
					return h%50 == 0
				})
				d.runRandom(int64(200+10*ri+phase), 1500)
				r.arm(nil)
				d.runRandom(int64(300+10*ri+phase), 500)
			}
			o := d.o
			stats := r.st.Stats()
			t.Logf("%d failed ops, %d/%d hits on acknowledged keys, %d flushes, %d evictions, %d value-log wraps",
				o.errs, o.hits, o.probes, stats.Core.Flushes, stats.Core.Evictions, stats.ValueLog.Wraps)
			if o.errs == 0 {
				t.Fatal("no op failed; the faults never fired")
			}
			if o.hits*5 < o.probes {
				t.Fatalf("only %d/%d lookups of acknowledged keys hit", o.hits, o.probes)
			}
			if row.wraps && stats.ValueLog.Wraps == 0 {
				t.Fatal("value log never wrapped; retune the row")
			}
		})
	}
	t.Run("clam/vlog-read-late-round", testLateRoundReadFault)
	t.Run("clam/vlog-append-flush", testFlushingAppendFault)
	t.Run("clam/index-read-streamed", testStreamedIndexReadFault)
	t.Run("clam/vlog-read-handoff", testHandoffReadFault)
	t.Run("clam/vlog-read-reused-pages", testReusedPagesReadFault)
	t.Run("clam/vlog-append-behind", testAppendBehindFault)
	t.Run("clam/cached-key-writes", testCachedKeyWrites)
	t.Run("clam/vlog-read-partition", testPartReadFault)
	t.Run("clam/vlog-append-partition", testPartWriteFault)
	t.Run("clam/vlog-wrap-across-ssds", testWrapAcrossSSDs)
}

// testCachedKeyWrites caches a U64 key and a byte key, each first put and
// flushed, then put again and found by a read run of Gets, whose later
// Gets the hot-entry cache answers. Then the key is overwritten, deleted,
// or lost to a failed index write: a Flush whose index write fails drops
// the image holding the key's latest value. The next read run's Gets must
// keep the contract, never reading the flushed, older value: an
// overwritten key hits its new value, from the cache too, and a deleted or
// lost key misses, the cache answering none of them.
func testCachedKeyWrites(t *testing.T) {
	families := []struct {
		name          string
		put, get, del int
	}{
		{"u64", fopPutU64, fopGetU64, fopDeleteU64},
		{"byte", fopPut, fopGet, fopDelete},
	}
	for _, fam := range families {
		for _, write := range []string{"overwrite", "delete", "failed-index-write"} {
			t.Run(fam.name+"/"+write, func(t *testing.T) {
				r := openFaultCLAM(t, 2<<20, 4<<20, WithMemory(512<<10), WithBufferKB(16), WithSeed(15))
				d := newFaultDriver(t, r, 16, 0, 1)
				bh := r.st.(*CLAM).shards[0].bh
				const ki = 3
				// readRun Gets the key three times in a row and returns the
				// cache hits the run took.
				readRun := func() uint64 {
					hits := bh.Stats().CacheHits
					for range 3 {
						d.apply(fam.get, ki, 1)
					}
					return bh.Stats().CacheHits - hits
				}
				d.apply(fam.put, ki, 1)
				d.failed(r.st.Flush())
				d.apply(fam.put, ki, 1)
				if readRun() == 0 {
					t.Fatal("the read run's Gets never hit the cache")
				}
				switch write {
				case "overwrite":
					d.apply(fam.put, ki, 1)
				case "delete":
					d.apply(fam.del, ki, 1)
				case "failed-index-write":
					r.arm(func(role faultRole, _ int, op storage.Op) bool {
						return role <= roleIndexB && op == storage.OpWrite
					})
					errs := d.o.errs
					d.apply(fopFlush, 0, 1)
					r.arm(nil)
					if d.o.errs == errs {
						t.Fatal("the Flush whose index write failed succeeded")
					}
				}
				hits := readRun()
				switch {
				case write == "overwrite" && hits == 0:
					t.Fatal("the read run after the overwrite never hit the cache")
				case write == "overwrite" && d.o.hits != d.o.probes:
					t.Fatalf("only %d of %d Gets of the key hit", d.o.hits, d.o.probes)
				case write != "overwrite" && hits != 0:
					t.Fatalf("the cache answered %d Gets of a key with no value", hits)
				}
			})
		}
	}
}

// putTwice puts every key of d's universe twice in 300-key byte windows:
// more keys than the buffers of a 144 KB store hold, so most lookups
// probe flash, and with two Bloom filter bits per entry several
// incarnations.
func putTwice(d *faultDriver) {
	for range 2 {
		for base := 0; base < d.nKeys; base += 2100 {
			for k := range 7 {
				d.apply(fopPutBatch, base+k, 300)
			}
		}
	}
}

// testHandoffReadFault fails the first value-log read on SSD B that a
// GetBatch chunk issues while its phase A still runs: a hand-off of hits
// that phase A found in the buffer or resolved against a completed
// streamed index read. A read whose hook sees the shard clock below the chunk's
// start plus BufferLookup for each of its keys, the least CPU its phase A
// charges, runs inside phase A. The GetBatch must fail, and every later
// answer keep the contract: random fault-free ops follow.
func testHandoffReadFault(t *testing.T) {
	r := openFaultCLAM(t, 2<<20, 4<<20, WithMemory(144<<10), WithBufferKB(16), WithSeed(12))
	d := newFaultDriver(t, r, 12000, 0, 300)
	putTwice(d)
	sh := r.st.(*CLAM).shards[0]
	perKey := sh.bh.Config().CPU.BufferLookup
	var phaseAEnd time.Duration // the least clock phase A can end at
	var armed, fired bool
	r.devs[roleLogB].SetFault(func(op storage.Op, _ int64, _ int) error {
		if armed && op == storage.OpRead && sh.clock.Now() < phaseAEnd {
			armed, fired = false, true
			return errFault
		}
		return nil
	})
	const win = 300
	for ki := 0; ki < d.nKeys && !fired; ki += 7 {
		phaseAEnd = sh.clock.Now() + win*perKey
		armed = true
		errs := d.o.errs
		d.apply(fopGetBatch, ki, win)
		armed = false
		if fired && d.o.errs == errs {
			t.Fatal("GetBatch succeeded past its failed phase-A record read")
		}
	}
	r.arm(nil)
	if !fired {
		t.Fatal("no GetBatch read the value log during phase A; retune the row")
	}
	d.runRandom(701, 1500)
}

// testReusedPagesReadFault fails a value-log read that a GetBatch chunk
// issues in its second or a later hand-off of hits (see core.HitHook),
// one whose hits include a record on a log page an earlier hand-off of
// the same chunk read: the log serves that record from the chunk's page
// without a request, and submits only the pages no hand-off read yet, the
// first of which fails, on either of the log's SSDs. A hit's record pages
// come from its pointer word: the record's offset in the low 36 bits and
// its length in the next 21 (see storage's pointer layout). The GetBatch
// must fail, and every later answer keep the contract: random fault-free
// ops follow.
func testReusedPagesReadFault(t *testing.T) {
	r := openFaultCLAM(t, 2<<20, 4<<20, WithMemory(144<<10), WithBufferKB(16), WithSeed(14))
	d := newFaultDriver(t, r, 12000, 0, 300)
	putTwice(d)
	sh := r.st.(*CLAM).shards[0]
	ps := uint64(r.devs[roleLogB].Geometry().PageSize)
	var (
		handoffs     int
		read         = map[uint64]bool{} // log pages the chunk's hand-offs read
		armed, fired bool
	)
	hook := sh.onHits.Read
	sh.onHits.Read = func(hits []int) error {
		armed = false
		if handoffs++; handoffs > 1 && !fired {
			for _, i := range hits {
				w := sh.batchRes[i].Value
				if !storage.IsValuePtr(w) {
					continue
				}
				off, n := w&(1<<36-1), w>>36&(1<<21-1)
				for pg := off / ps; n > 0 && pg <= (off+n-1)/ps; pg++ {
					armed = armed || read[pg]
				}
			}
		}
		return hook(hits)
	}
	for i, p := range sh.logs.parts {
		p.SetFault(func(op storage.Op, off int64, _ int) error {
			if op != storage.OpRead {
				return nil
			}
			if armed && !fired {
				fired = true
				return errFault
			}
			read[uint64(logOffset(sh, i, off))/ps] = true
			return nil
		})
	}
	for ki := 0; ki < d.nKeys && !fired; ki += 7 {
		handoffs, armed = 0, false
		clear(read)
		errs := d.o.errs
		d.apply(fopGetBatch, ki, 300)
		if fired && d.o.errs == errs {
			t.Fatal("GetBatch succeeded past its failed record read")
		}
	}
	r.arm(nil)
	if !fired {
		t.Fatal("no GetBatch read new log pages in a hand-off that reused an earlier one's; retune the row")
	}
	d.runRandom(703, 1500)
}

// logOffset returns the value-log offset of byte off of the shard's log
// partition i: the stripe deals the log's units to its partitions in turn,
// each holding its units back to back (see stripeOver).
func logOffset(sh *shard, i int, off int64) int64 {
	n := int64(len(sh.logs.parts))
	unit := int64(sh.vlog.Device().Geometry().EraseBlock)
	return (off/unit*n+int64(i))*unit + off%unit
}

// testPartReadFault fails the first value-log read on SSD A's log
// partition, a record read that queues behind SSD A's index probes.
// The GetBatch must fail, and every later answer keep the contract:
// random fault-free ops follow. (The late-round, hand-off and
// reused-page rows fail reads on SSD B's log partition.)
func testPartReadFault(t *testing.T) {
	r := openFaultCLAM(t, 2<<20, 4<<20, WithMemory(144<<10), WithBufferKB(16), WithSeed(15))
	d := newFaultDriver(t, r, 12000, 0, 300)
	putTwice(d)
	var fired bool
	r.devs[roleLogA].SetFault(func(op storage.Op, _ int64, _ int) error {
		if op == storage.OpRead && !fired {
			fired = true
			return errFault
		}
		return nil
	})
	for ki := 0; ki < d.nKeys && !fired; ki += 7 {
		errs := d.o.errs
		d.apply(fopGetBatch, ki, 300)
		if fired && d.o.errs == errs {
			t.Fatal("GetBatch succeeded past its failed record read on SSD A")
		}
	}
	r.arm(nil)
	if !fired {
		t.Fatal("no GetBatch read SSD A's log partition; retune the row")
	}
	d.runRandom(704, 1500)
}

// testPartWriteFault fails the first value-log write on SSD A's log
// partition, a whole-block append that a successful chunk would leave
// running on SSD A's timeline. The put must fail and return joined to both
// SSDs' timelines, and every later answer — first a GetBatch of the same
// keys — keep the contract.
func testPartWriteFault(t *testing.T) {
	r := openFaultCLAM(t, 2<<20, 4<<20, WithMemory(512<<10), WithBufferKB(16), WithSeed(16))
	d := newFaultDriver(t, r, 12000, 100, 64)
	sh := r.st.(*CLAM).shards[0]
	var fired bool
	r.devs[roleLogA].SetFault(func(op storage.Op, _ int64, _ int) error {
		if op == storage.OpWrite && !fired {
			fired = true
			return errFault
		}
		return nil
	})
	rng := rand.New(rand.NewSource(705))
	for step := 0; !fired; step++ {
		if step == 4000 {
			t.Fatal("no PutBatch wrote SSD A's log partition; retune the row")
		}
		ki, win := rng.Intn(d.nKeys), 1+rng.Intn(d.maxWin)
		errs := d.o.errs
		d.apply(fopPutBatch, ki, win)
		if !fired {
			continue
		}
		if d.o.errs == errs {
			t.Fatal("PutBatch acknowledged a chunk whose append to SSD A failed")
		}
		if l, c := vclock.Latest(sh.logs.clocks), sh.clock.Now(); l > c {
			t.Fatalf("the failed PutBatch left an SSD clock %v ahead of its clock %v", l, c)
		}
		r.arm(nil)
		d.apply(fopGetBatch, ki, win)
	}
	d.runRandom(706, 3000)
}

// testWrapAcrossSSDs fails SSD A's share of a wrap's padding write that
// spans both SSDs. The log has four units, alternating between SSD B's
// log partition and SSD A's, and 3,000-byte values make a 64-key PutBatch
// longer than a unit, so the tail buffer can hold the log's last two units
// when a record does not fit: the wrap writes both, SSD B's share first,
// which stays served and charged, and then SSD A's, which fails. The put
// must fail, and every later answer keep the contract: random fault-free
// ops follow.
func testWrapAcrossSSDs(t *testing.T) {
	r := openFaultCLAM(t, 256<<10, 512<<10, WithMemory(16<<10), WithBufferKB(4), WithMaxIncarnations(32), WithSeed(17))
	d := newFaultDriver(t, r, 256, 3000, 64)
	logCap, partCap := r.devs[roleLogB].Geometry().Capacity, r.devs[roleLogA].Geometry().Capacity
	var logTail, fired bool // logTail: the last request was SSD B's write of its log partition's last unit
	var served uint64       // SSD B's log writes, when its share of the spanning wrap was served
	for _, role := range []faultRole{roleIndexA, roleIndexB} {
		r.devs[role].SetFault(func(storage.Op, int64, int) error { logTail = false; return nil })
	}
	r.devs[roleLogB].SetFault(func(op storage.Op, off int64, n int) error {
		logTail = op == storage.OpWrite && off+int64(n) == logCap
		return nil
	})
	r.devs[roleLogA].SetFault(func(op storage.Op, off int64, n int) error {
		spans := logTail && op == storage.OpWrite && off+int64(n) == partCap
		logTail = false
		if spans && !fired {
			fired, served = true, r.devs[roleLogB].Counters().Writes
			return errFault
		}
		return nil
	})
	rng := rand.New(rand.NewSource(707))
	for step := 0; !fired; step++ {
		if step == 4000 {
			t.Fatal("no wrap wrote both SSDs; retune the row")
		}
		errs := d.o.errs
		d.apply(fopPutBatch, rng.Intn(d.nKeys), 32+rng.Intn(33))
		if fired && d.o.errs == errs {
			t.Fatal("PutBatch acknowledged a chunk whose wrap failed on SSD A")
		}
	}
	if r.devs[roleLogB].Counters().Writes != served || served == 0 {
		t.Fatal("SSD B's share of the failed wrap was not served")
	}
	r.arm(nil)
	d.runRandom(708, 1500)
}

// testAppendBehindFault fails the first value-log write on SSD B, the
// whole-block write of a PutBatch chunk that a successful chunk would
// leave running behind its acknowledgement. The put must fail, and return
// joined to both SSDs, and every later answer — first a GetBatch of the same keys — keep
// the contract.
func testAppendBehindFault(t *testing.T) {
	r := openFaultCLAM(t, 2<<20, 4<<20, WithMemory(512<<10), WithBufferKB(16), WithSeed(13))
	d := newFaultDriver(t, r, 12000, 100, 64)
	sh := r.st.(*CLAM).shards[0]
	var fired bool
	r.devs[roleLogB].SetFault(func(op storage.Op, _ int64, _ int) error {
		if op == storage.OpWrite && !fired {
			fired = true
			return errFault
		}
		return nil
	})
	rng := rand.New(rand.NewSource(700))
	for step := 0; !fired; step++ {
		if step == 2000 {
			t.Fatal("no PutBatch wrote the value log; retune the row")
		}
		ki, win := rng.Intn(d.nKeys), 1+rng.Intn(d.maxWin)
		errs := d.o.errs
		d.apply(fopPutBatch, ki, win)
		if !fired {
			continue
		}
		if d.o.errs == errs {
			t.Fatal("PutBatch acknowledged a chunk whose value-log write failed")
		}
		if l, c := vclock.Latest(sh.logs.clocks), sh.clock.Now(); l > c {
			t.Fatalf("the failed PutBatch left an SSD clock %v ahead of its clock %v", l, c)
		}
		r.arm(nil)
		d.apply(fopGetBatch, ki, win)
	}
	d.runRandom(702, 3000)
}

// testStreamedIndexReadFault fails the first index read on SSD A that a
// GetBatch chunk, and then a GetBatchU64 chunk, submits during phase A,
// while the
// chunk's in-memory phase still runs and its phase-A hits are not yet
// reported. Two Bloom filter bits per entry and every key put twice make
// most lookups probe flash, so a 300-key window gathers its first pages
// within a few keys. A read whose hook sees the shard clock below the
// chunk's start plus BufferLookup for each of its keys, the least CPU its
// phase A charges, runs inside phase A. Each call must fail, and every
// later answer keep the contract: first a one-key GetU64, whose phase A
// completes and reports no leftover hits, then random fault-free ops.
func testStreamedIndexReadFault(t *testing.T) {
	r := openFaultCLAM(t, 2<<20, 4<<20, WithMemory(144<<10), WithBufferKB(16), WithSeed(11))
	d := newFaultDriver(t, r, 12000, 0, 300)
	for range 2 {
		for base := 0; base < d.nKeys; base += 2100 {
			for k := range 7 {
				d.apply(fopPutBatch, base+k, 300)
				d.apply(fopPutBatchU64, base+k, 300)
			}
		}
	}
	sh := r.st.(*CLAM).shards[0]
	perKey := sh.bh.Config().CPU.BufferLookup
	var phaseAEnd time.Duration // the least clock phase A can end at
	var armed, fired bool
	r.devs[roleIndexA].SetFault(func(op storage.Op, _ int64, _ int) error {
		if armed && op == storage.OpRead && sh.clock.Now() < phaseAEnd {
			armed, fired = false, true
			return errFault
		}
		return nil
	})
	const win = 300
	for _, kind := range []int{fopGetBatch, fopGetBatchU64} {
		fired = false
		for ki := 0; ki < d.nKeys && !fired; ki += 7 {
			phaseAEnd = sh.clock.Now() + win*perKey
			armed = true
			errs := d.o.errs
			d.apply(kind, ki, win)
			armed = false
			if fired && d.o.errs == errs {
				t.Fatalf("op %d succeeded past its failed phase-A index read", kind)
			}
		}
		if !fired {
			t.Fatalf("no op %d read the index during phase A; retune the row", kind)
		}
		d.apply(fopGetU64, 0, 1)
	}
	r.arm(nil)
	d.runRandom(601, 1500)
}

// testLateRoundReadFault fails one value-log record read on SSD B that a
// GetBatch chunk issues for hits its second or a later probing round
// resolved, a read that runs while the index probes the next round. A hit resolved in round r read r index pages, and phase A
// resolves only round 1, so a hand-off holding a hit that read two pages
// or more comes after round 2. Two Bloom filter bits per entry make
// lookups probe several incarnations, so a 300-key window takes several
// rounds. The GetBatch must fail, and every later answer keep the
// contract.
func testLateRoundReadFault(t *testing.T) {
	r := openFaultCLAM(t, 2<<20, 4<<20, WithMemory(144<<10), WithBufferKB(16), WithSeed(8))
	d := newFaultDriver(t, r, 12000, 0, 300)
	putTwice(d)
	sh := r.st.(*CLAM).shards[0]
	var late, fired bool
	read := sh.onHits.Read
	sh.onHits.Read = func(hits []int) error {
		for _, i := range hits {
			late = late || sh.batchRes[i].FlashReads >= 2
		}
		return read(hits)
	}
	r.devs[roleLogB].SetFault(func(op storage.Op, _ int64, _ int) error {
		if op == storage.OpRead && late && !fired {
			fired = true
			return errFault
		}
		return nil
	})
	for ki := 0; ki < d.nKeys && !fired; ki += 7 {
		late = false
		errs := d.o.errs
		d.apply(fopGetBatch, ki, 300)
		if fired && d.o.errs == errs {
			t.Fatal("GetBatch succeeded past its failed record read")
		}
	}
	r.arm(nil)
	if !fired {
		t.Fatal("no GetBatch read the value log for hits of its second probing round; retune the row")
	}
	d.runRandom(401, 1500)
}

// testFlushingAppendFault fails the value-log append of a PutBatch chunk
// that also flushes an index buffer: the append fails when it is
// submitted, and the chunk still inserts its record pointers, flushing,
// before it fails. A twin store fed the same ops finds the chunk. The
// put must not be acknowledged, and every later answer — first a GetBatch
// of the same keys — keep the contract.
func testFlushingAppendFault(t *testing.T) {
	open := func() *faultRig {
		return openFaultCLAM(t, 2<<20, 4<<20, WithMemory(512<<10), WithBufferKB(16), WithSeed(10))
	}
	twin, r := open(), open()
	dt, d := newFaultDriver(t, twin, 12000, 100, 64), newFaultDriver(t, r, 12000, 100, 64)
	// index counts the index's writes on both SSDs, log SSD B's log writes.
	writes := func(r *faultRig) (index, log uint64) {
		return r.devs[roleIndexA].Counters().Writes + r.devs[roleIndexB].Counters().Writes, r.devs[roleLogB].Counters().Writes
	}
	rng := rand.New(rand.NewSource(500))
	for step := 0; ; step++ {
		if step == 2000 {
			t.Fatal("no PutBatch chunk both wrote the value log and flushed the index; retune the row")
		}
		ki, win := rng.Intn(d.nKeys), 1+rng.Intn(d.maxWin)
		i0, l0 := writes(twin)
		dt.apply(fopPutBatch, ki, win)
		i1, l1 := writes(twin)
		both := i1 > i0 && l1 > l0
		if both {
			r.devs[roleLogB].SetFault(func(op storage.Op, _ int64, _ int) error {
				if op == storage.OpWrite {
					return errFault
				}
				return nil
			})
		}
		errs, flushes := d.o.errs, r.st.Stats().Device.Writes
		d.apply(fopPutBatch, ki, win)
		if !both {
			continue
		}
		r.arm(nil)
		if d.o.errs == errs {
			t.Fatal("PutBatch acknowledged a chunk whose value-log append failed")
		}
		if r.st.Stats().Device.Writes == flushes {
			t.Fatal("the chunk whose append failed did not flush the index")
		}
		d.apply(fopGetBatch, ki, win)
		break
	}
	d.runRandom(501, 3000)
}

// FuzzFaultedOps runs the oracle over an op sequence and a fault schedule
// taken from the input: each 3-byte group of ops is (kind, key, window),
// and the four fault inputs are bitmaps over the requests of the index's
// partitions on SSDs A and B and the value log's on B and A (see
// faultRole), each in issue order, each repeated. The rig's index and
// value log are each striped over its two SSDs, so the oracle covers both
// stripes.
func FuzzFaultedOps(f *testing.F) {
	// These three seeds predate a bitmap per device and give every
	// partition the one bitmap they had.
	f.Add([]byte{0, 1, 0, 1, 1, 0, 8, 2, 40, 9, 2, 40, 15, 0, 0, 1, 3, 0}, []byte{0x10}, []byte{0x10}, []byte{0x10}, []byte(nil))
	// Found by a randomized search over op sequences and fault bitmaps
	// while failed flush writes still left their images' incarnations
	// readable: both served values older than the latest acknowledged one.
	f.Add([]byte{
		0x9, 0x40, 0x30, 0x0, 0xa, 0x6d, 0x0, 0xa1, 0x6, 0x0, 0x4a, 0x2c,
		0xc, 0xb8, 0x5c, 0x5, 0x11, 0x33, 0x8, 0xa7, 0xa7, 0x8, 0xac, 0xd6,
		0x1, 0xfd, 0x9b, 0xc, 0xf9, 0x14, 0xc, 0x18, 0xd1, 0x0, 0xf3, 0x44,
		0xb, 0x2e, 0x3c, 0x1, 0x80, 0x4, 0x9, 0xc0, 0x8d, 0x1, 0x59, 0x7b,
		0x8, 0x69, 0x36, 0x5, 0x3b, 0x16, 0x1, 0x54, 0x9c, 0xb, 0xfb, 0x6f,
		0xb, 0xc, 0x13, 0x5, 0xdc, 0xbd, 0x0, 0x41, 0x23, 0x8, 0x6, 0xf0,
		0x8, 0x8b, 0x12, 0x8, 0xb1, 0xc9, 0x4, 0x13, 0x34, 0xb, 0x60, 0x76,
		0x4, 0xc3, 0x70, 0x1, 0x40, 0xd0, 0x8, 0xe0, 0xf0, 0x8, 0xa5, 0xb9,
		0xc, 0x55, 0xf5, 0x0, 0x8, 0x1, 0x1, 0x3b, 0x66, 0x8, 0x68, 0x8c,
		0x8, 0x3b, 0xfb, 0x8, 0x98, 0x78, 0xc, 0xa0, 0xfe, 0x4, 0xb, 0xac,
		0xc, 0x27, 0x18,
	}, []byte{0x10, 0x0, 0x0}, []byte{0x10, 0x0, 0x0}, []byte{0x10, 0x0, 0x0}, []byte(nil))
	f.Add([]byte{
		0x8, 0xb5, 0x93, 0xb, 0xb5, 0x1f, 0x0, 0x6, 0xa2, 0x4, 0x92, 0x2f,
		0x4, 0x6, 0x7a, 0x8, 0x7d, 0x2b, 0x8, 0x1a, 0x44, 0x0, 0x72, 0xe2,
		0x5, 0xa5, 0x18, 0x5, 0x2c, 0x95, 0x8, 0x12, 0xb0, 0xb, 0x4d, 0x6b,
		0xc, 0xf1, 0x26, 0x8, 0x5b, 0xa4, 0x8, 0xa0, 0xf8, 0x4, 0xd7, 0xe0,
		0xb, 0x52, 0x3a, 0x1, 0xa8, 0x8e, 0x8, 0x9a, 0x84, 0x9, 0x2c, 0x6e,
		0x9, 0xb, 0x18, 0xb, 0x38, 0x54, 0x4, 0x99, 0x35, 0x8, 0xc8, 0x60,
		0x8, 0x92, 0x58, 0x0, 0x45, 0xb8, 0x4, 0x26, 0xb6, 0xc, 0xee, 0x67,
		0x5, 0x16, 0x41, 0x9, 0xd0, 0x5a, 0x8, 0xbb, 0xbd, 0x4, 0x28, 0x9b,
		0x9, 0x79, 0x2c, 0xc, 0x63, 0x40, 0x8, 0xf1, 0xa3, 0xc, 0xe, 0xa,
		0x8, 0x54, 0xb7, 0x8, 0x1c, 0x1f, 0x4, 0xe1, 0x8e, 0x8, 0x1d, 0xb,
		0x8, 0xd0, 0xff, 0x1, 0x59, 0x3f, 0x1, 0x8f, 0x9b, 0x1, 0x32, 0x72,
		0xc, 0x3d, 0x8e, 0xb, 0x23, 0x9f, 0x1, 0x27, 0xbe, 0xb, 0x1, 0x0,
		0x8, 0x41, 0x9a,
	}, []byte{0x8}, []byte{0x8}, []byte{0x8}, []byte(nil))
	// Each targeted seed fails one request on a path of its own (see
	// targetedFaultSeeds).
	for _, seed := range targetedFaultSeeds {
		bm := seed.bitmaps()
		f.Add(seed.ops, bm[roleIndexA], bm[roleIndexB], bm[roleLogB], bm[roleLogA])
	}
	f.Fuzz(func(t *testing.T, ops, indexA, indexB, logB, logA []byte) {
		r, d := openFuzzRig(t)
		r.arm(bitmapFaults(indexA, indexB, logB, logA))
		fuzzOps(ops, d.apply)
	})
}

// openFuzzRig opens FuzzFaultedOps' store and its driver: one CLAM on
// small Intel SSDs, 256 keys of each family, and byte values padded to
// 3,000 bytes. The index is two erase blocks, one on each SSD, in two
// super tables of up to 32 incarnations, so that its 128-entry buffers
// flush often. The value log is four, striped over SSD B's partition and
// SSD A's, so puts write it a block or more at a time, wrap it often, and
// a window of 64 puts can outgrow a block, so that a wrap's padding write
// can span both SSDs.
func openFuzzRig(t testing.TB) (*faultRig, *faultDriver) {
	r := openFaultCLAM(t, 256<<10, 512<<10, WithMemory(16<<10), WithBufferKB(4), WithMaxIncarnations(32), WithSeed(9))
	return r, newFaultDriver(t, r, 256, 3000, 64)
}

// bitmapFaults fails request i of a rig's partitions of each role when bit
// i of that role's bitmap, repeated, is set; the bitmaps come in role
// order (see faultRole). An empty bitmap fails nothing.
func bitmapFaults(bitmaps ...[]byte) func(role faultRole, i int, _ storage.Op) bool {
	return func(role faultRole, i int, _ storage.Op) bool {
		faults := bitmaps[role]
		if len(faults) == 0 {
			return false
		}
		b := faults[(i/8)%len(faults)]
		return b>>(i%8)&1 == 1
	}
}

// fuzzOps calls apply for each of the first 400 3-byte groups of ops:
// (kind, key, window).
func fuzzOps(ops []byte, apply func(kind, ki, win int)) {
	for i := 0; i+2 < min(len(ops), 3*400); i += 3 {
		apply(int(ops[i])%numFaultOps, int(ops[i+1]), 1+int(ops[i+2])%64)
	}
}
