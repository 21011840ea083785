package clam

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

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

// openFaultCLAM opens a single CLAM over caller-owned SSDs.
func openFaultCLAM(t testing.TB, flash, vlog int64, opts ...Option) *faultRig {
	t.Helper()
	clock := vclock.New()
	idx := ssd.New(ssd.IntelX18M(), flash, clock)
	vdev := ssd.New(ssd.IntelX18M(), vlog, clock)
	st, err := Open(append([]Option{WithCustomDevice(idx), WithValueLogDevice(vdev),
		WithClock(clock), WithFlash(flash)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return &faultRig{st: st, devs: []*ssd.SSD{idx, vdev}}
}

// openFaultSharded opens a kind-built Sharded store and reaches each
// shard's SSDs through the write-timing wrapper.
func openFaultSharded(t testing.TB, opts ...Option) *faultRig {
	t.Helper()
	s := openShardedT(t, append([]Option{WithDevice(IntelSSD)}, opts...)...)
	r := &faultRig{st: s}
	for i := 0; i < s.NumShards(); i++ {
		for _, d := range []storage.Device{s.Shard(i).Device(), s.Shard(i).ValueDevice()} {
			r.devs = append(r.devs, d.(*timedQueuedTrimmer).Device.(*ssd.SSD))
		}
	}
	return r
}

// faultOp kinds: per-key ops of both families, batch ops over a window of
// keys, and Flush.
const (
	fopPutU64 = iota
	fopGetU64
	fopDeleteU64
	fopContainsU64
	fopPut
	fopGet
	fopDelete
	fopContains
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
	case fopContainsU64:
		ok, err := st.ContainsU64(u64Key(ki))
		d.failed(err)
		if err == nil {
			o.check("ContainsU64", d.uName(ki), ok, 0)
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
	case fopContains:
		ok, err := st.Contains(d.byteKey[ki])
		d.failed(err)
		if err == nil {
			o.check("Contains", string(d.byteKey[ki]), ok, 0)
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
				WithBufferKB(16), WithShards(4), WithWorkers(2), WithBatchChunk(64), WithSeed(6))
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
