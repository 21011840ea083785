package clam

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/hashutil"
	"repro/internal/ssd"
	"repro/internal/storage"
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
// reads a bitmap from its input.
type faultSchedule struct {
	n    int
	fail func(i int, op storage.Op) bool
}

func (s *faultSchedule) hook(op storage.Op, _ int64, _ int) error {
	i := s.n
	s.n++
	if s.fail(i, op) {
		return errFault
	}
	return nil
}

// faultRig is a store under test plus every SSD behind it.
type faultRig struct {
	st   Store
	devs []*ssd.SSD
}

// arm installs the schedule on every device (nil disarms). Devices of
// different shards run concurrently, so each gets its own request counter;
// fail must be a pure function of its arguments.
func (r *faultRig) arm(fail func(i int, op storage.Op) bool) {
	for _, d := range r.devs {
		if fail == nil {
			d.SetFault(nil)
			continue
		}
		s := &faultSchedule{fail: fail}
		d.SetFault(s.hook)
	}
}

// openFaultCLAM opens a kind-built single CLAM on Intel SSDs and reaches
// its index and value-log SSDs, which a kind-opened store hands out bare.
func openFaultCLAM(t testing.TB, flash, vlog int64, opts ...Option) *faultRig {
	t.Helper()
	c := openCLAMT(t, append([]Option{WithDevice(IntelSSD), WithValueLog(vlog), WithFlash(flash)}, opts...)...)
	sh := c.shards[0]
	return &faultRig{st: c, devs: []*ssd.SSD{sh.dev.(*ssd.SSD), sh.vlog.Device().(*ssd.SSD)}}
}

// openFaultSharded opens a kind-built Sharded store and reaches each
// shard's SSDs, which a kind-opened store hands out bare.
func openFaultSharded(t testing.TB, opts ...Option) *faultRig {
	t.Helper()
	s := openShardedT(t, append([]Option{WithDevice(IntelSSD)}, opts...)...)
	r := &faultRig{st: s}
	for _, sh := range s.shards {
		r.devs = append(r.devs, sh.dev.(*ssd.SSD), sh.vlog.Device().(*ssd.SSD))
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
// fail (a store issues far fewer writes than reads). Each row checks that
// faults actually failed ops and that the store still answered: at least a
// fifth of the lookups of acknowledged keys hit.
func TestFaultOracle(t *testing.T) {
	rows := []struct {
		name  string
		open  func(t *testing.T) *faultRig
		pad   int
		wraps bool
	}{
		{"clam/fifo", func(t *testing.T) *faultRig {
			return openFaultCLAM(t, 2<<20, 4<<20, WithMemory(512<<10), WithBufferKB(16), WithSeed(3))
		}, 0, false},
		{"clam/update", func(t *testing.T) *faultRig {
			return openFaultCLAM(t, 2<<20, 4<<20, WithMemory(512<<10), WithBufferKB(16),
				WithPolicy(UpdateBased), WithSeed(4))
		}, 0, false},
		{"clam/priority", func(t *testing.T) *faultRig {
			return openFaultCLAM(t, 2<<20, 4<<20, WithMemory(512<<10), WithBufferKB(16),
				WithPolicy(PriorityBased), WithRetain(func(_, v uint64) bool { return v%2 == 0 }), WithSeed(7))
		}, 0, false},
		{"clam/vlog-wrap", func(t *testing.T) *faultRig {
			return openFaultCLAM(t, 2<<20, 256<<10, WithMemory(512<<10), WithBufferKB(16), WithSeed(5))
		}, 200, true},
		{"sharded", func(t *testing.T) *faultRig {
			return openFaultSharded(t, WithFlash(4<<20), WithMemory(1<<20), WithValueLog(4<<20),
				WithBufferKB(16), WithShards(4), WithWorkers(2), withBatchChunk(64), WithSeed(6))
		}, 0, false},
	}
	for ri, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := row.open(t)
			d := newFaultDriver(t, r, 3000, row.pad, 300)
			// Fault-free warm-up, then faulted and fault-free stretches.
			d.runRandom(int64(100+ri), 1500)
			for phase := 0; phase < 4; phase++ {
				seed := uint64(ri)<<8 | uint64(phase)
				r.arm(func(i int, op storage.Op) bool {
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
}

// testStreamedIndexReadFault fails the first index read that a GetBatch
// chunk, and then a GetBatchU64 chunk, submits during phase A, while the
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
	r.devs[0].SetFault(func(op storage.Op, _ int64, _ int) error {
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

// testLateRoundReadFault fails one value-log record read that a GetBatch
// chunk issues after its second probing round began, a read that runs on
// the log device while the index device probes. Two Bloom filter bits per
// entry make lookups probe several incarnations, so a 300-key window
// takes several rounds. The GetBatch must fail, and every later answer
// keep the contract.
func testLateRoundReadFault(t *testing.T) {
	r := openFaultCLAM(t, 2<<20, 4<<20, WithMemory(144<<10), WithBufferKB(16), WithSeed(8))
	d := newFaultDriver(t, r, 12000, 0, 300)
	// Put every key twice: more keys than the buffers hold, so most
	// lookups probe flash.
	for range 2 {
		for base := 0; base < d.nKeys; base += 2100 {
			for k := range 7 {
				d.apply(fopPutBatch, base+k, 300)
			}
		}
	}
	// The hooks see one shard's requests in issue order: a run of index
	// reads is a probing round, and the log reads after the second run
	// resolve a round after the first.
	var rounds int
	var inRound, fired bool
	r.devs[0].SetFault(func(op storage.Op, _ int64, _ int) error {
		if op == storage.OpRead && !inRound {
			rounds++
			inRound = true
		}
		return nil
	})
	r.devs[1].SetFault(func(op storage.Op, _ int64, _ int) error {
		if op != storage.OpRead {
			return nil
		}
		inRound = false
		if rounds >= 2 && !fired {
			fired = true
			return errFault
		}
		return nil
	})
	for ki := 0; ki < d.nKeys && !fired; ki += 7 {
		rounds, inRound = 0, false
		errs := d.o.errs
		d.apply(fopGetBatch, ki, 300)
		if fired && d.o.errs == errs {
			t.Fatal("GetBatch succeeded past its failed record read")
		}
	}
	r.arm(nil)
	if !fired {
		t.Fatal("no GetBatch read the value log after its second probing round; retune the row")
	}
	d.runRandom(401, 1500)
}

// testFlushingAppendFault fails the value-log append of a PutBatch chunk
// that also flushes an index buffer: the chunk inserts its record pointers
// while the append is in flight and learns of the failure when it joins
// the log's timeline. A twin store fed the same ops finds the chunk. The
// put must not be acknowledged, and every later answer — first a GetBatch
// of the same keys — keep the contract.
func testFlushingAppendFault(t *testing.T) {
	open := func() *faultRig {
		return openFaultCLAM(t, 2<<20, 4<<20, WithMemory(512<<10), WithBufferKB(16), WithSeed(10))
	}
	twin, r := open(), open()
	dt, d := newFaultDriver(t, twin, 12000, 100, 64), newFaultDriver(t, r, 12000, 100, 64)
	writes := func(r *faultRig) (index, log uint64) { return r.devs[0].Counters().Writes, r.devs[1].Counters().Writes }
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
			r.devs[1].SetFault(func(op storage.Op, _ int64, _ int) error {
				if op == storage.OpWrite {
					return errFault
				}
				return nil
			})
		}
		errs, flushes := d.o.errs, r.devs[0].Counters().Writes
		d.apply(fopPutBatch, ki, win)
		if !both {
			continue
		}
		r.arm(nil)
		if d.o.errs == errs {
			t.Fatal("PutBatch acknowledged a chunk whose value-log append failed")
		}
		if r.devs[0].Counters().Writes == flushes {
			t.Fatal("the chunk whose append failed did not flush the index")
		}
		d.apply(fopGetBatch, ki, win)
		break
	}
	d.runRandom(501, 3000)
}

// FuzzFaultedOps runs the oracle over an op sequence and a fault schedule
// taken from the input: each 3-byte group of ops is (kind, key, window),
// and faults is a bitmap over device requests in issue order, repeated.
func FuzzFaultedOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 0, 8, 2, 40, 9, 2, 40, 15, 0, 0, 1, 3, 0}, []byte{0x10})
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
	}, []byte{0x10, 0x0, 0x0})
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
	}, []byte{0x8})
	// A GetBatch (op 70) whose value-log record read after its second
	// probing round fails: the bitmap's one set bit fails the log
	// device's request 148 and no other request of the run.
	lateRead := make([]byte, 144)
	lateRead[148/8] = 1 << (148 % 8)
	f.Add([]byte{
		0xc, 0x87, 0x63, 0x4, 0xcf, 0x9f, 0xb, 0x6d, 0xcf, 0xb, 0x49, 0xfd,
		0xc, 0x85, 0xd, 0xb, 0x56, 0x23, 0xc, 0xac, 0x63, 0xc, 0xcd, 0xe5,
		0x4, 0x6d, 0x26, 0xc, 0xf, 0x79, 0xc, 0x6c, 0x5b, 0x8, 0xaf, 0xad,
		0x4, 0x75, 0xf8, 0xb, 0x1f, 0x31, 0xc, 0x41, 0xcc, 0xc, 0x3c, 0xa8,
		0x4, 0x95, 0x99, 0x8, 0x22, 0xbc, 0xc, 0x79, 0xb1, 0xb, 0x27, 0xf2,
		0x4, 0xff, 0x6d, 0x8, 0xd, 0xaf, 0x8, 0x8, 0xf8, 0x8, 0xd3, 0x54,
		0x4, 0x63, 0x63, 0xc, 0xd7, 0xa0, 0xb, 0x47, 0x1a, 0xc, 0xf, 0x3d,
		0xc, 0x92, 0x7b, 0xb, 0x5d, 0x1, 0xc, 0xe, 0x59, 0xc, 0xf0, 0x4b,
		0xc, 0x53, 0x58, 0xc, 0x6e, 0x98, 0xc, 0x62, 0xad, 0xb, 0x8, 0xb7,
		0xb, 0xab, 0x65, 0xb, 0x2a, 0x59, 0x8, 0xe4, 0x29, 0xc, 0x10, 0xc3,
		0x4, 0xd7, 0x6a, 0xb, 0x4d, 0xc3, 0xc, 0xff, 0x94, 0xb, 0x56, 0x3b,
		0xc, 0x7a, 0x3d, 0xc, 0x7d, 0xe3, 0xc, 0x37, 0x6c, 0xb, 0xc9, 0x5d,
		0x8, 0x82, 0x18, 0xc, 0x8a, 0x8e, 0x4, 0x92, 0x53, 0xb, 0x64, 0xec,
		0x8, 0xa0, 0x73, 0x8, 0x8b, 0xbe, 0xb, 0x80, 0x5e, 0xc, 0x98, 0xb5,
		0xb, 0x8b, 0x89, 0xc, 0x74, 0xaa, 0xb, 0xff, 0xda, 0xb, 0xdf, 0xb8,
		0xc, 0xfe, 0xb4, 0x8, 0x84, 0x9c, 0x4, 0x64, 0x82, 0xb, 0x81, 0xfe,
		0xc, 0xf1, 0xac, 0xc, 0x5d, 0x55, 0x8, 0x13, 0x6c, 0xc, 0xe, 0xaa,
		0xc, 0x12, 0xfa, 0xb, 0xc, 0x56, 0xc, 0xd9, 0x70, 0xc, 0x7f, 0x8d,
		0xc, 0x0, 0x3c, 0x8, 0xb7, 0xe4, 0xc, 0x69, 0xd4, 0xb, 0xa0, 0x35,
	}, lateRead)
	// A PutBatch chunk (op 93) whose value-log append fails while its
	// insert flushes an index buffer: the bitmap's one set bit fails the
	// log device's request 166 and no other request of the run.
	flushingAppend := make([]byte, 60)
	flushingAppend[166/8] = 1 << (166 % 8)
	f.Add([]byte{
		0xb, 0x50, 0x8, 0xc, 0xc, 0xd6, 0xb, 0x30, 0x1a, 0xb, 0x53, 0x38,
		0xb, 0xa, 0x10, 0xc, 0x7c, 0x18, 0xc, 0x2c, 0x24, 0xc, 0x85, 0x24,
		0x8, 0xbf, 0x4e, 0xc, 0xef, 0x4a, 0xb, 0x4b, 0x67, 0xb, 0xb7, 0xad,
		0xc, 0xd9, 0xec, 0x8, 0xb9, 0xd3, 0xc, 0x13, 0xb9, 0x8, 0xc4, 0xd4,
		0x8, 0x8d, 0xcc, 0x4, 0x14, 0xb, 0xc, 0xb2, 0x50, 0x4, 0x9, 0x42,
		0xb, 0x5e, 0xb4, 0xc, 0xac, 0x40, 0xb, 0x1f, 0x3d, 0x4, 0x45, 0x17,
		0x8, 0x9, 0xb4, 0xb, 0xc1, 0xfd, 0xc, 0x8e, 0xee, 0xb, 0x1, 0x80,
		0x4, 0x42, 0x36, 0xb, 0x46, 0xad, 0x8, 0x5e, 0x77, 0xb, 0xb1, 0xec,
		0xb, 0x3c, 0x36, 0xc, 0x7, 0xa2, 0xc, 0xa2, 0xfb, 0x8, 0x85, 0x85,
		0xb, 0xdd, 0x53, 0xc, 0x66, 0xc5, 0xc, 0xd7, 0x9b, 0xb, 0xf4, 0x1b,
		0xc, 0x69, 0x92, 0xc, 0xd6, 0x67, 0xc, 0x12, 0xba, 0x4, 0xe6, 0xe4,
		0x8, 0x21, 0xf9, 0xb, 0xd9, 0x26, 0xc, 0x16, 0xf3, 0xb, 0x9d, 0x73,
		0xc, 0x71, 0x85, 0xb, 0xcd, 0x4a, 0xb, 0x77, 0xdd, 0xc, 0x95, 0xf0,
		0x8, 0x76, 0x3b, 0xb, 0x83, 0xd3, 0xc, 0x6b, 0x20, 0xb, 0x75, 0xc,
		0xc, 0x9, 0xa4, 0xb, 0x7c, 0xd9, 0x4, 0x67, 0x17, 0x4, 0x4e, 0x9c,
		0xb, 0x2d, 0x14, 0x8, 0xb4, 0x8a, 0xb, 0xe7, 0x6a, 0x8, 0xd9, 0x70,
		0xc, 0xb2, 0xd9, 0xc, 0x3c, 0xce, 0x4, 0x86, 0xd5, 0xc, 0x8, 0x3,
		0xc, 0x49, 0xc2, 0xb, 0x78, 0x63, 0x8, 0xdc, 0x58, 0xc, 0x3, 0xbe,
		0x4, 0x9c, 0x5c, 0xc, 0x4b, 0x51, 0x4, 0x3a, 0x70, 0x4, 0x71, 0xae,
		0xc, 0x3e, 0xf, 0xb, 0x55, 0x70, 0xb, 0x93, 0xa0, 0x8, 0xc1, 0xda,
		0xb, 0x97, 0xed, 0xb, 0xce, 0x7e, 0x8, 0x47, 0xc8, 0xb, 0xc1, 0xf4,
		0xb, 0x64, 0x89, 0xb, 0x48, 0xc1, 0xc, 0x2, 0xf7, 0xc, 0x79, 0xc6,
		0x8, 0x67, 0x17, 0xb, 0x25, 0xdf, 0xb, 0xcb, 0x18, 0x8, 0xfc, 0x58,
		0x4, 0x5c, 0x9a, 0xb, 0xda, 0xfb, 0xb, 0xbf, 0x1f, 0x4, 0x25, 0x53,
		0xb, 0xe2, 0xb1, 0xb, 0x77, 0x33, 0x4, 0xd9, 0xd7,
	}, flushingAppend)
	// A GetBatch (op 92) whose first index read fails while its phase A
	// still runs and its phase-A hits are unreported, followed three ops
	// later by a GetBatchU64, whose phase A must not report them: the
	// bitmap's one set bit fails the index device's request 46 and no
	// other request of the run.
	streamed := make([]byte, 6)
	streamed[46/8] = 1 << (46 % 8)
	f.Add([]byte{
		0x9, 0x7c, 0x63, 0x0, 0xf0, 0xf6, 0x0, 0xc5, 0xb1, 0xb, 0x43, 0x74,
		0x0, 0xaf, 0x74, 0x4, 0xdb, 0x8a, 0x8, 0x8b, 0xe3, 0x4, 0xfa, 0x71,
		0x8, 0xb9, 0xb2, 0x8, 0x1a, 0x5f, 0x0, 0x11, 0x64, 0xb, 0x81, 0x6b,
		0xb, 0xfe, 0xfa, 0xc, 0xe9, 0xde, 0x4, 0x5d, 0x20, 0x8, 0xa6, 0xae,
		0xb, 0xf6, 0x9, 0xb, 0xc3, 0x59, 0x8, 0x1e, 0x65, 0x4, 0x9e, 0x91,
		0xb, 0x82, 0xaa, 0x0, 0x97, 0xc, 0x8, 0xf, 0x7e, 0xb, 0x50, 0xc9,
		0xb, 0x20, 0xf4, 0xb, 0xbb, 0x1f, 0xb, 0xd7, 0x1d, 0x0, 0xbc, 0x38,
		0xc, 0x1d, 0xd8, 0xc, 0x77, 0xde, 0xb, 0x4c, 0xd7, 0xc, 0xc1, 0x6d,
		0x0, 0xc3, 0xa6, 0x4, 0xdd, 0x54, 0x4, 0x39, 0x19, 0x9, 0x5d, 0xc3,
		0x9, 0x16, 0x53, 0xb, 0xc2, 0x4, 0xc, 0xf2, 0xde, 0x9, 0x96, 0x18,
		0x9, 0xd7, 0xb, 0x9, 0x3c, 0x3c, 0xc, 0x7c, 0xe, 0x8, 0xca, 0x5b,
		0x0, 0xb9, 0x7, 0xb, 0xd4, 0x74, 0x4, 0x1b, 0xc9, 0x4, 0x97, 0xf,
		0xb, 0xb6, 0x4e, 0x8, 0x9e, 0x3c, 0xb, 0x2a, 0x6, 0x4, 0x8c, 0x62,
		0x4, 0xa6, 0xb5, 0xc, 0x87, 0x7a, 0x9, 0x8c, 0xc5, 0x4, 0x44, 0x6c,
		0xc, 0xfd, 0xda, 0x9, 0x68, 0x10, 0xc, 0xea, 0x79, 0x9, 0x92, 0x40,
		0xb, 0x61, 0x29, 0x8, 0xf1, 0xc5, 0xc, 0xa2, 0x88, 0x8, 0x16, 0xca,
		0x4, 0xd5, 0x62, 0x0, 0x21, 0xf3, 0xb, 0x80, 0xc0, 0x8, 0x3a, 0x28,
		0x4, 0xe9, 0x96, 0xc, 0xc1, 0xc8, 0x8, 0xbe, 0x17, 0x8, 0x38, 0x37,
		0xb, 0x77, 0x5f, 0x8, 0xd, 0xa, 0xb, 0x3a, 0xd6, 0xc, 0x48, 0x4,
		0x8, 0xa3, 0x85, 0x8, 0xe0, 0x39, 0x8, 0xf5, 0x71, 0x8, 0x56, 0x56,
		0x0, 0x34, 0x74, 0x0, 0x9f, 0xe5, 0x4, 0x57, 0x96, 0xb, 0x51, 0x66,
		0xb, 0x93, 0x6f, 0x0, 0x3a, 0xa9, 0x0, 0xdd, 0xbc, 0xb, 0x7f, 0x59,
		0x8, 0xb4, 0x4a, 0x8, 0x9c, 0xa0, 0xb, 0x3c, 0x4b, 0x0, 0xe9, 0xd2,
		0xc, 0xab, 0xa5, 0x0, 0x8b, 0xd8, 0xb, 0xc6, 0xf9, 0x9, 0x35, 0x56,
		0xb, 0x8a, 0xa6, 0xb, 0xb8, 0x58, 0xb, 0x75, 0xd, 0x4, 0x50, 0x40,
		0xb, 0x50, 0xd4, 0xb, 0x4d, 0x26, 0x8, 0x27, 0x66, 0xc, 0xde, 0xa2,
		0xb, 0x51, 0xee, 0x9, 0xe4, 0xd5, 0x4, 0x48, 0xb0, 0x8, 0x1d, 0x54,
		0x0, 0x51, 0x24, 0x9, 0xc1, 0x5b, 0x4, 0x78, 0x3f, 0xc, 0x49, 0x46,
		0xb, 0xf3, 0xc9, 0xc, 0x2c, 0x76, 0xb, 0x2c, 0xb1, 0x9, 0x4f, 0xc1,
		0x4, 0x9a, 0x5e, 0x0, 0xd6, 0x56, 0x4, 0x7c, 0x46, 0xb, 0xc, 0x98,
		0x9, 0x69, 0xb8, 0xb, 0xb8, 0x17, 0xc, 0x51, 0xeb,
	}, streamed)
	f.Fuzz(func(t *testing.T, ops, faults []byte) {
		if len(ops) > 3*400 {
			ops = ops[:3*400]
		}
		r := openFaultCLAM(t, 128<<10, 64<<10, WithMemory(16<<10), WithBufferKB(4), WithSeed(9))
		if len(faults) > 0 {
			r.arm(func(i int, _ storage.Op) bool {
				b := faults[(i/8)%len(faults)]
				return b>>(i%8)&1 == 1
			})
		}
		d := newFaultDriver(t, r, 256, 40, 64)
		for i := 0; i+2 < len(ops); i += 3 {
			d.apply(int(ops[i])%numFaultOps, int(ops[i+1]), 1+int(ops[i+2])%d.maxWin)
		}
	})
}
