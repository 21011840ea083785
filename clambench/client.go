package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/clam"
	"repro/internal/hashutil"
)

// callKind names the Store method behind one call.
type callKind uint8

const (
	callGetU64 callKind = iota
	callPutU64
	callGetBatchU64
	callPutBatchU64
	callGetBatch
	callPutBatch
)

var callNames = [...]string{
	"store.GetU64", "store.PutU64", "store.GetBatchU64", "store.PutBatchU64", "store.GetBatch", "store.PutBatch",
}

func (k callKind) String() string { return callNames[k] }

func (k callKind) isGet() bool { return k == callGetU64 || k == callGetBatchU64 || k == callGetBatch }

// client is the benchmark's single closed-loop caller: it issues the next
// Store call only after the previous one returned, as library callers that
// wait for each reply do. It times every call twice: in wall time around
// the call, and in virtual time as the largest advance of any shard clock
// during the call (shards run in parallel, so the slowest one sets a
// batch's completion). The store's own latency histograms are never read:
// batch calls feed them amortized per-key samples, which are not latencies.
type client struct {
	st      clam.Store
	shards  []*clam.CLAM // the store's shards; a single CLAM is its own shard
	clock0  []time.Duration
	advance []time.Duration
	rec     *recorder // measured-phase samples; nil while warming up
	tr      *tracer   // nil on untraced stores

	// digest hashes every call's virtual latency and outcome in order, so
	// two stores share it only if they agreed call by call.
	digest uint64
	// attempted counts the operations of every call; failed counts those
	// of failed calls plus every hit that was not the latest value.
	attempted, failed int64
	complaints        int
}

var ctx = context.Background()

func newClient(st clam.Store, tr *tracer) *client {
	c := &client{st: st, tr: tr}
	switch s := st.(type) {
	case *clam.CLAM:
		c.shards = []*clam.CLAM{s}
	case *clam.Sharded:
		for i := range s.NumShards() {
			c.shards = append(c.shards, s.Shard(i))
		}
	}
	c.clock0 = make([]time.Duration, len(c.shards))
	c.advance = make([]time.Duration, len(c.shards))
	if tr != nil {
		tr.bind(c.shards)
	}
	return c
}

func (c *client) traced() bool { return c.tr != nil && c.tr.active }

// begin reads the shard clocks and returns the call's wall start.
func (c *client) begin() time.Time {
	if c.traced() {
		c.tr.beforeCall()
	}
	for i, s := range c.shards {
		c.clock0[i] = s.Clock().Now()
	}
	t0 := time.Now()
	if c.traced() {
		c.tr.openCall(t0)
	}
	return t0
}

// end accounts a call that ran from t0 to t1 carrying keys operations, of
// which ops count towards throughput and hits were found. It reports
// whether the call succeeded.
func (c *client) end(k callKind, t0, t1 time.Time, keys, ops, hits int, err error) bool {
	var virt time.Duration
	for i, s := range c.shards {
		c.advance[i] = s.Clock().Now() - c.clock0[i]
		virt = max(virt, c.advance[i])
	}
	c.attempted += int64(keys)
	if err != nil {
		c.failed += int64(keys)
		c.complain("%v: %v", k, err)
	}
	c.digest = hashutil.Hash64Seed(uint64(virt)<<8|uint64(k), c.digest^uint64(hits)<<32^uint64(keys))
	if c.rec != nil {
		c.rec.observe(k, t1.Sub(t0), virt, keys, ops, hits, err != nil)
	}
	if c.traced() {
		c.tr.closeCall(k, t1, c.advance)
	}
	return err == nil
}

// wrong counts a hit that did not return the latest acknowledged value.
func (c *client) wrong(format string, args ...any) {
	c.failed++
	if c.rec != nil {
		c.rec.failed++
	}
	c.complain(format, args...)
}

// complain prints the first few failures to standard error.
func (c *client) complain(format string, args ...any) {
	if c.complaints++; c.complaints <= 10 {
		fmt.Fprintf(os.Stderr, "clambench: "+format+"\n", args...)
	}
}

func (c *client) getU64(key uint64) (uint64, bool, bool) {
	t0 := c.begin()
	v, found, err := c.st.GetU64(key)
	t1 := time.Now()
	return v, found, c.end(callGetU64, t0, t1, 1, 1, countTrue(found), err)
}

func (c *client) putU64(key, v uint64) bool {
	t0 := c.begin()
	err := c.st.PutU64(key, v)
	t1 := time.Now()
	return c.end(callPutU64, t0, t1, 1, 1, 0, err)
}

func (c *client) getBatchU64(keys []uint64) ([]uint64, []bool, bool) {
	t0 := c.begin()
	vals, found, err := c.st.GetBatchU64(ctx, keys)
	t1 := time.Now()
	return vals, found, c.end(callGetBatchU64, t0, t1, len(keys), len(keys), countTrue(found...), err)
}

func (c *client) putBatchU64(keys, vals []uint64) bool {
	t0 := c.begin()
	err := c.st.PutBatchU64(ctx, keys, vals)
	t1 := time.Now()
	return c.end(callPutBatchU64, t0, t1, len(keys), len(keys), 0, err)
}

func (c *client) getBatch(keys [][]byte) ([][]byte, []bool, bool) {
	t0 := c.begin()
	vals, found, err := c.st.GetBatch(ctx, keys)
	t1 := time.Now()
	return vals, found, c.end(callGetBatch, t0, t1, len(keys), len(keys), countTrue(found...), err)
}

// putBatch stores a batch whose keys count ops operations towards
// throughput.
func (c *client) putBatch(keys, vals [][]byte, ops int) bool {
	t0 := c.begin()
	err := c.st.PutBatch(ctx, keys, vals)
	t1 := time.Now()
	return c.end(callPutBatch, t0, t1, len(keys), ops, 0, err)
}

func countTrue(bs ...bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// snapshot captures the store's deterministic state: every shard's
// counters and virtual clock, plus the client's call digest.
func (c *client) snapshot() snapshot {
	s := snapshot{shards: make([]shardState, len(c.shards)), digest: c.digest}
	for i, sh := range c.shards {
		st := sh.Stats()
		s.shards[i] = shardState{st.Core, st.Device, st.ValueDevice, st.ValueLog, sh.Clock().Now()}
	}
	return s
}
