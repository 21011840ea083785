// Package experiments contains one driver per table and figure of the
// paper's evaluation (§6.4, §7, §8), run by the cmd/clam-figures tool.
// Each experiment runs against the simulated device substrate in virtual time
// at a configurable scale and returns a Report whose rows mirror the
// paper's presentation, so paper-vs-measured comparisons are mechanical.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Scale sets experiment sizes. The paper's hardware-scale configuration
// (32 GB flash, 4 GB DRAM) is reproduced at reduced scale with all ratios
// preserved, since the cost model of §6 depends on them and not on the
// absolute capacity: k = 16 incarnations, 128 KB buffers, 16 B entries,
// ~16 Bloom bits per entry. Warm-up is derived from the flash
// size: the structure is filled past one full eviction cycle so lookups
// measure the flash-resident steady state, as in the paper's backlogged
// workloads (§7.2).
type Scale struct {
	Name         string
	FlashMB      int // F
	MemMB        int // M
	Ops          int // measured operations
	TraceObjects int // WAN optimizer trace length
	TraceMeanKB  int // WAN optimizer mean object size
}

// Small is the test/bench scale (runs in seconds).
var Small = Scale{
	Name: "small", FlashMB: 16, MemMB: 4,
	Ops:          20000,
	TraceObjects: 15, TraceMeanKB: 192,
}

// Medium is the default scale for cmd/clam-figures (tens of seconds).
var Medium = Scale{
	Name: "medium", FlashMB: 64, MemMB: 12,
	Ops:          80000,
	TraceObjects: 40, TraceMeanKB: 512,
}

// Large exercises a bigger fraction of the paper's scale (minutes).
var Large = Scale{
	Name: "large", FlashMB: 256, MemMB: 40,
	Ops:          200000,
	TraceObjects: 80, TraceMeanKB: 1024,
}

// flashEntries returns the steady-state flash-resident population.
func flashEntries(sc Scale) int64 { return int64(sc.FlashMB) << 20 / 32 }

// warmCount returns the number of warm-up inserts: 1.25 eviction cycles.
func warmCount(sc Scale) int { return int(flashEntries(sc) * 5 / 4) }

// populationKeyRange returns the key range that yields the target LSR for
// a store WITHOUT eviction (e.g. BDB) after w warm-up inserts: the distinct
// count after w uniform draws from R keys is R·(1-e^{-w/R}), so the range
// solving distinct/R = lsr is w / ln(1/(1-lsr)).
func populationKeyRange(w int, lsr float64) uint64 {
	if lsr <= 0 {
		return 1 << 62
	}
	if lsr >= 1 {
		lsr = 0.99
	}
	return uint64(float64(w) / (-math.Log(1 - lsr)))
}

// Report is a formatted experiment result.
type Report struct {
	ID    string // e.g. "fig6"
	Title string
	// PaperClaim summarizes what the paper reports for this artifact.
	PaperClaim string
	Rows       []string
	// Metrics are machine-readable key values; the band checks in this
	// package's tests read them.
	Metrics map[string]float64
}

// String renders the report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.PaperClaim != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.PaperClaim)
	}
	for _, row := range r.Rows {
		b.WriteString(row)
		b.WriteByte('\n')
	}
	return b.String()
}

func (r *Report) addRow(format string, args ...any) {
	r.Rows = append(r.Rows, fmt.Sprintf(format, args...))
}

func (r *Report) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) float64 { return metrics.Ms(d) }

// clamConfig builds the paper-shaped BufferHash config for a scale on a
// given device (16 super tables per 32 MB of flash, 128 KB buffers, k=16,
// 16 Bloom bits/entry).
func clamConfig(sc Scale, dev storage.Device, clock *vclock.Clock) core.Config {
	flash := int64(sc.FlashMB) << 20
	const bufBytes = 128 << 10
	// nt·k·buf = flash with k=16.
	nt := flash / (16 * bufBytes)
	bits := uint(0)
	for 1<<(bits+1) <= nt {
		bits++
	}
	return core.Config{
		Device:             dev,
		Clock:              clock,
		PartitionBits:      bits,
		BufferBytes:        bufBytes,
		NumIncarnations:    16,
		FilterBitsPerEntry: 16,
		Seed:               1,
	}
}

// lsrKeyRange returns the key range for a target steady-state LSR given
// the store's flash-resident population.
func lsrKeyRange(sc Scale, lsr float64) uint64 {
	if lsr <= 0 {
		return 1 << 62
	}
	return uint64(float64(flashEntries(sc)) / lsr)
}
