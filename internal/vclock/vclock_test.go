package vclock

import (
	"sync"
	"testing"
	"time"
)

func TestNewStartsAtEpoch(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestAdvance(t *testing.T) {
	c := New()
	if got := c.Advance(5 * time.Millisecond); got != 5*time.Millisecond {
		t.Fatalf("Advance returned %v, want 5ms", got)
	}
	c.Advance(10 * time.Microsecond)
	if got := c.Now(); got != 5*time.Millisecond+10*time.Microsecond {
		t.Fatalf("Now() = %v, want 5.01ms", got)
	}
}

func TestAdvanceZero(t *testing.T) {
	c := New()
	c.Advance(0)
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	New().Advance(-1)
}

func TestAdvanceTo(t *testing.T) {
	c := New()
	c.Advance(time.Second)
	if moved := c.AdvanceTo(500 * time.Millisecond); moved {
		t.Fatal("AdvanceTo moved the clock backwards")
	}
	if got := c.Now(); got != time.Second {
		t.Fatalf("Now() = %v, want 1s", got)
	}
	if moved := c.AdvanceTo(2 * time.Second); !moved {
		t.Fatal("AdvanceTo did not move the clock forwards")
	}
	if got := c.Now(); got != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", got)
	}
}

func TestStopwatch(t *testing.T) {
	c := New()
	c.Advance(time.Millisecond)
	w := c.StartWatch()
	c.Advance(3 * time.Millisecond)
	if got := w.Elapsed(); got != 3*time.Millisecond {
		t.Fatalf("Elapsed() = %v, want 3ms", got)
	}
}

func TestConcurrentAdvance(t *testing.T) {
	c := New()
	const (
		workers = 8
		perW    = 1000
	)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perW; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Now(), time.Duration(workers*perW)*time.Microsecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestConcurrentAdvanceToMonotonic(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 1; i <= 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.AdvanceTo(time.Duration(i) * time.Millisecond)
		}(i)
	}
	wg.Wait()
	if got := c.Now(); got != 100*time.Millisecond {
		t.Fatalf("Now() = %v, want 100ms", got)
	}
}

// TestIssueEnd checks that Issue moves every timeline up to the issue
// instant and that End counts only the timelines a submission moved: a
// timeline still busy with earlier work that the submission did not reach
// holds nothing back, however far ahead it is.
func TestIssueEnd(t *testing.T) {
	a, b := New(), New()
	b.Advance(9 * time.Millisecond) // busy with earlier work
	is := Issue([]*Clock{a, b}, 2*time.Millisecond, make([]time.Duration, 2))
	if a.Now() != 2*time.Millisecond || b.Now() != 9*time.Millisecond {
		t.Fatalf("after Issue at 2ms: a %v, b %v; want 2ms and 9ms", a.Now(), b.Now())
	}
	if end := is.End(); end != 0 {
		t.Fatalf("End before any timeline moved = %v, want 0", end)
	}
	a.Advance(3 * time.Millisecond)
	if end := is.End(); end != 5*time.Millisecond {
		t.Fatalf("End with a alone reached = %v, want 5ms", end)
	}
	b.Advance(time.Millisecond)
	if end := is.End(); end != 10*time.Millisecond {
		t.Fatalf("End with both reached = %v, want 10ms", end)
	}
}
