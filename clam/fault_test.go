package clam

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

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
	// stride is the key-index step of the next batch window; 0 means 7.
	stride int
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
// win keys, d.stride apart, wrapping around the universe).
func (d *faultDriver) apply(kind, ki, win int) {
	t, st, o := d.o.t, d.r.st, d.o
	ctx := context.Background()
	window := func() []int {
		stride := cmp.Or(d.stride, 7)
		idx := make([]int, win)
		for j := range idx {
			idx[j] = (ki + j*stride) % d.nKeys // duplicates appear once win > nKeys/stride
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
	t.Run("clam/cached-key-writes", testCachedKeyWrites)
	// Each of these rows fails the first requests of its named request
	// classes, picked from a fault-free trace (see failNamedClasses).
	for _, row := range []struct {
		name    string
		classes []string
	}{
		{"clam/vlog-read-late-round", []string{"late-round-log-read"}},
		{"clam/vlog-append-flush", []string{"flushing-append"}},
		{"clam/index-read-streamed", []string{"streamed-index-read", "u64-streamed-index-read"}},
		{"clam/vlog-append-behind", []string{"append-behind"}},
		{"clam/vlog-read-partition", []string{"part-log-read"}},
		{"clam/vlog-append-partition", []string{"part-log-write"}},
		{"clam/vlog-wrap-across-ssds", []string{"wrap-across-members"}},
	} {
		t.Run(row.name, func(t *testing.T) { failNamedClasses(t, row.classes, 3) })
	}
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

// FuzzFaultedOps runs the oracle over an op sequence and a fault schedule
// taken from the input: each 3-byte group of ops is (kind, key, window),
// and the four fault inputs are bitmaps over the requests of the index's
// partitions on SSDs A and B and the value log's on B and A (see
// faultRole), each in issue order, each repeated. The rig's index and
// value log are each striped over its two SSDs, so the oracle covers both
// stripes. Its seeds fail requests at fixed positions and name no path:
// TestFaultEnumeration fails each class of request the rig's two fault
// scripts reach, the uniform and the put-heavy seed's sequences, one
// request at a time.
func FuzzFaultedOps(f *testing.F) {
	// These three seeds predate a bitmap per device and give every
	// partition the one bitmap they had.
	f.Add([]byte{0, 1, 0, 1, 1, 0, 8, 2, 40, 9, 2, 40, 15, 0, 0, 1, 3, 0}, []byte{0x10}, []byte{0x10}, []byte{0x10}, []byte(nil))
	// Found by a randomized search over op sequences and fault bitmaps
	// while failed flush writes still left their images' incarnations
	// readable: both served values older than the latest acknowledged one.
	// They were found on an earlier rig (4 KB images on a 256 KB index,
	// 256 keys of each family) and now drive other paths.
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
	// A uniform random sequence and a put-heavy one, two thirds of its ops
	// PutBatchU64 and PutBatch windows, which flushes index buffers while it
	// appends, holds their images and writes them behind later calls: each
	// fails one request in 32 of every partition.
	for _, ops := range [][]byte{putHeavyOps(), uniformOps()} {
		f.Add(ops, []byte{0x10, 0, 0, 0}, []byte{0x10, 0, 0, 0}, []byte{0x10, 0, 0, 0}, []byte{0x10, 0, 0, 0})
	}
	f.Fuzz(func(t *testing.T, ops, indexA, indexB, logB, logA []byte) {
		r, d := openFuzzRig(t)
		r.arm(bitmapFaults(indexA, indexB, logB, logA))
		for _, op := range decodeOps(ops) {
			d.apply(op.kind, op.ki, op.win)
		}
	})
}

// openFuzzRig opens FuzzFaultedOps' store and its driver: one CLAM on
// small Intel SSDs, 700 keys of each family (a window reaches key 696),
// and byte values padded to 3,000 bytes. The index is eight erase blocks,
// four on each SSD, of 16 KB images, four pages each, in super tables of
// up to 32 incarnations, and its 40 KB of memory leaves few Bloom filter
// bits, so lookups probe many pages: random op sequences hand phase-A
// probes to an idle SSD and submit more pages than the SSDs' lanes, which
// read through small holes (TestFaultEnumeration).
// The value log is four blocks, striped over SSD B's partition and SSD
// A's, so puts write it a block on each SSD at a time and wrap it often,
// and a wrap's padding write spans both SSDs.
func openFuzzRig(t testing.TB) (*faultRig, *faultDriver) {
	r := openFaultCLAM(t, 1<<20, 512<<10, WithMemory(40<<10), WithBufferKB(16), WithMaxIncarnations(32), WithSeed(9))
	return r, newFaultDriver(t, r, 700, 3000, 64)
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

// decodeOps returns the ops of the first 400 3-byte groups of a
// FuzzFaultedOps op sequence: (kind, key, window).
func decodeOps(ops []byte) []scriptOp {
	var s []scriptOp
	for i := 0; i+2 < min(len(ops), 3*400); i += 3 {
		s = append(s, scriptOp{int(ops[i]) % numFaultOps, int(ops[i+1]), 1 + int(ops[i+2])%64, 0})
	}
	return s
}
