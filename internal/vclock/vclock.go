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

// Issued is the readings of a device's timelines when a submission was
// issued to it, from which End tells where the submission ended.
type Issued struct {
	cs []*Clock
	at []time.Duration
}

// Issue readies cs, the timelines of a device, for a submission issued at
// t: the submission cannot start on any of them before t, so each moves
// forward to t, as AdvanceTo does. It records their readings then in at,
// a caller's scratch of len(cs) that the returned Issued keeps.
func Issue(cs []*Clock, t time.Duration, at []time.Duration) Issued {
	for i, c := range cs {
		c.AdvanceTo(t)
		at[i] = c.Now()
	}
	return Issued{cs: cs, at: at[:len(cs)]}
}

// End returns the latest time among the timelines that moved since is
// was taken, 0 for none: the instant at which the submission issued then
// has ended on every timeline it reached. A timeline that was busy with
// earlier work and took no part of the submission does not count.
func (is *Issued) End() time.Duration {
	var t time.Duration
	for i, c := range is.cs {
		if now := c.Now(); now > is.at[i] {
			t = max(t, now)
		}
	}
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
