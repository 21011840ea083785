// Package vclock provides a virtual clock for deterministic simulation.
//
// All device models in this repository operate in virtual time: an I/O
// operation computes its service latency from a cost model and advances a
// shared Clock by that amount instead of sleeping. Experiments then read
// latency distributions that are independent of the host machine, which is
// what makes the paper's latency figures reproducible without the authors'
// hardware.
//
// A Clock is safe for concurrent use. Durations are measured from an
// arbitrary epoch (zero at construction).
package vclock

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a monotonically advancing virtual clock.
type Clock struct {
	now atomic.Int64 // nanoseconds since epoch
}

// New returns a clock positioned at the epoch (t = 0).
func New() *Clock {
	return &Clock{}
}

// Now returns the current virtual time as an offset from the epoch.
func (c *Clock) Now() time.Duration {
	return time.Duration(c.now.Load())
}

// Advance moves the clock forward by d and returns the new time.
// Advancing by a negative duration panics: virtual time is monotonic,
// and a negative advance always indicates a cost-model bug.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %v", d))
	}
	return time.Duration(c.now.Add(int64(d)))
}

// AdvanceTo moves the clock forward to t if t is in the future and reports
// whether the clock moved. It never moves the clock backwards, so concurrent
// callers may safely race.
func (c *Clock) AdvanceTo(t time.Duration) bool {
	for {
		cur := c.now.Load()
		if int64(t) <= cur {
			return false
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return true
		}
	}
}

// Stopwatch measures virtual-time intervals against a Clock.
type Stopwatch struct {
	clock *Clock
	start time.Duration
}

// StartWatch returns a stopwatch anchored at the clock's current time.
func (c *Clock) StartWatch() Stopwatch {
	return Stopwatch{clock: c, start: c.Now()}
}

// Elapsed returns the virtual time elapsed since the stopwatch was started.
func (s Stopwatch) Elapsed() time.Duration {
	return s.clock.Now() - s.start
}

// Timelines is the set of clocks a device runs on, its timelines, one
// per member that serves its own share of a submission, with the
// bookkeeping of an issuer that waits only for the timelines its
// submissions reached: their readings at the last issue, and the due
// instant, the latest end among the timelines reached since it was last
// read. Not safe for concurrent use; its issuer serializes.
type Timelines struct {
	cs  []*Clock
	at  []time.Duration
	due time.Duration
}

// NewTimelines returns the timelines cs, with nothing due.
func NewTimelines(cs ...*Clock) *Timelines {
	return &Timelines{cs: cs, at: make([]time.Duration, len(cs))}
}

// Issue readies the timelines for a submission issued at t: it cannot
// start on any of them before t, so each moves forward to t, as AdvanceTo
// does, and its reading then is kept for Reached.
func (tl *Timelines) Issue(t time.Duration) {
	for i, c := range tl.cs {
		c.AdvanceTo(t)
		tl.at[i] = c.Now()
	}
}

// Reached records where the submission issued last ended: the latest time
// among the timelines that moved since its Issue. A timeline that was busy
// with earlier work and took no part of the submission does not count,
// however far ahead it is.
func (tl *Timelines) Reached() {
	for i, c := range tl.cs {
		if now := c.Now(); now > tl.at[i] {
			tl.due = max(tl.due, now)
		}
	}
}

// Due returns the instant at which every submission recorded by Reached
// since the last Due ends, 0 for none, and clears it: the instant an
// issuer that waits for them waits until.
func (tl *Timelines) Due() time.Duration {
	t := tl.due
	tl.due = 0
	return t
}

// Latest returns the latest time among cs, 0 for none: the instant at
// which every timeline has finished what it was given.
func Latest(cs []*Clock) time.Duration {
	var t time.Duration
	for _, c := range cs {
		t = max(t, c.Now())
	}
	return t
}
