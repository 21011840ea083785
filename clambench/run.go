package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro/clam"
	"repro/internal/core"
)

// A run opens and warms a fresh store setups times; setup_s is the median.
// The first store is measured. The second replays the first 1/replayDiv of
// its measured phase (or, in a traced run, repeats all of it traced) and
// must reach exactly the first store's counters, clocks and virtual
// latencies. Every later store must reach the first one's post-warm-up
// state exactly.
const (
	setups    = 3
	replayDiv = 10 // the replay covers 1/replayDiv of the measured steps
)

type output struct {
	meta   meta
	report report
	result result
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full account of a run: every end-to-end metric that applies
// to the workload, including those the result line leaves out, the figures
// behind the medians and the host-speed scaling, and the self-checks.
type report struct {
	Metrics        map[string]metric `json:"metrics"`
	Unscaled       map[string]metric `json:"unscaled_wall_metrics"`
	HostSpeed      float64           `json:"host_speed"`
	ProbeMs        []float64         `json:"probe_ms_each"`
	Samples        map[string]int    `json:"samples"`
	SetupSeconds   []float64         `json:"setup_s_each"`
	SegmentOpsPerS []float64         `json:"segment_ops_per_s"`
	TracedOpsPerS  float64           `json:"traced_ops_per_s,omitempty"`
	TraceFile      string            `json:"trace_file,omitempty"`
	Passed         []string          `json:"checks_passed"`
	Failed         []string          `json:"checks_failed,omitempty"`
}

// meta is the run's metadata.
type meta struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Traced     bool           `json:"traced"`
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Steps      int            `json:"measured_steps"`
	Operations int64          `json:"measured_operations"`
	Options    map[string]any `json:"options"`
	CoreConfig []coreConfig   `json:"core_config"` // per shard of the measured store
}

// coreConfig is the printable part of a resolved core.Config.
type coreConfig struct {
	Device             string        `json:"device"`
	PartitionBits      uint          `json:"partition_bits"`
	BufferBytes        int           `json:"buffer_bytes"`
	NumIncarnations    int           `json:"incarnations"`
	FilterBitsPerEntry int           `json:"filter_bits_per_entry"`
	FilterHashes       int           `json:"filter_hashes"`
	Policy             string        `json:"policy"`
	Layout             core.Layout   `json:"layout"`
	Seed               uint64        `json:"seed"`
	CPU                core.CPUCosts `json:"cpu_costs_ns"`
	DisableBloom       bool          `json:"disable_bloom"`
	DisableBitslice    bool          `json:"disable_bitslice"`
}

// audit collects the outcome of the run's self-checks.
type audit struct{ passed, failed []string }

func (a *audit) check(ok bool, what string) {
	if ok {
		a.passed = append(a.passed, what)
		return
	}
	a.failed = append(a.failed, what)
	fmt.Fprintln(os.Stderr, "clambench: self-check failed:", what)
}

func run(w scenario, name string, seed int64, seconds int, traced bool) (*output, error) {
	steps := w.steps()
	replay := max(1, steps/replayDiv)
	m := meta{
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Steps: steps, Options: w.options(),
	}
	var (
		setup             []time.Duration
		main, second      *phase
		tr                *tracer
		warm0             snapshot
		heapMB            float64
		a                 audit
		attempted, failed int64
	)
	base := heapInuse()
	for r := range setups {
		var t *tracer
		if traced && r == 1 {
			gets, puts := w.calls()
			tr = newTracer(steps * (gets + puts))
			t = tr
		}
		c, d, err := setUp(w, t)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", r, err)
		}
		setup = append(setup, d)
		warm := c.snapshot()
		switch {
		case r == 0:
			warm0 = warm
			heapMB = float64(heapInuse()-base) / (1 << 20)
			m.CoreConfig = coreConfigs(c.shards)
			main = measure(w, c, steps, replay)
			m.Operations = main.attempted
		case r == 1 && traced:
			second = measure(w, c, steps, steps)
			a.check(second.end.equal(main.end),
				"the traced measured phase reproduces the untraced counters, clocks and virtual latencies")
			a.check(tr.misnested == 0, "every device span nests inside its store span")
			tr.release()
		case r == 1:
			second = measure(w, c, replay, replay)
			a.check(second.end.equal(main.check), fmt.Sprintf(
				"a replay of the first %d of %d steps reproduces the counters, clocks and virtual latencies", replay, steps))
		}
		if r > 0 {
			a.check(warm.equal(warm0), fmt.Sprintf("setup %d reproduces setup 0's post-warm-up state", r))
		}
		attempted += c.attempted
		failed += c.failed
	}

	unscaled := endToEnd(main, setup, heapMB)
	speed := hostSpeed(main.probes)
	e2e := scaleWall(unscaled, speed)
	out := &output{meta: m, report: report{
		Metrics:        e2e,
		Unscaled:       map[string]metric{},
		HostSpeed:      speed,
		Samples:        map[string]int{"get_calls": main.getWall.n, "put_calls": main.putWall.n},
		SegmentOpsPerS: main.segRates,
	}}
	for _, name := range wallMetrics {
		if v, ok := unscaled[name]; ok {
			out.report.Unscaled[name] = v
		}
	}
	for _, d := range main.probes {
		out.report.ProbeMs = append(out.report.ProbeMs, float64(d)/1e6)
	}
	for _, d := range setup {
		out.report.SetupSeconds = append(out.report.SetupSeconds, d.Seconds())
	}
	metrics := map[string]metric{}
	if traced {
		metrics = perLayer(w, main, second, tr)
		out.report.TracedOpsPerS = second.opsPerS
		path, err := tr.write(m)
		if err != nil {
			return nil, err
		}
		out.report.TraceFile = path
	} else {
		for _, name := range contractMetrics {
			metrics[name] = e2e[name]
		}
	}
	out.report.Passed, out.report.Failed = a.passed, a.failed
	out.result = result{
		Correct:   failed == 0 && len(a.failed) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}
	return out, nil
}

// setUp opens and warms a fresh store, returning its client and the wall
// time the two took.
func setUp(w scenario, tr *tracer) (*client, time.Duration, error) {
	runtime.GC() // collect the previous store before timing this one
	t0 := time.Now()
	st, err := w.open(tr)
	if err != nil {
		return nil, 0, fmt.Errorf("open: %w", err)
	}
	c := newClient(st, tr)
	if err := w.warm(c); err != nil {
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return c, time.Since(t0), nil
}

// heapInuse returns the live heap after forced collections (the second
// also frees what the first left in sync.Pool victim caches).
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// commit names the source revision: git's HEAD when the benchmark runs at
// the root of a git checkout, "unknown" otherwise.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func coreConfigs(shards []*clam.CLAM) []coreConfig {
	var cfgs []coreConfig
	for _, s := range shards {
		c := s.Core().Config()
		cfgs = append(cfgs, coreConfig{
			Device:             fmt.Sprintf("%T", c.Device),
			PartitionBits:      c.PartitionBits,
			BufferBytes:        c.BufferBytes,
			NumIncarnations:    c.NumIncarnations,
			FilterBitsPerEntry: c.FilterBitsPerEntry,
			FilterHashes:       c.FilterHashes,
			Policy:             c.Policy.String(),
			Layout:             c.Layout,
			Seed:               c.Seed,
			CPU:                c.CPU,
			DisableBloom:       c.DisableBloom,
			DisableBitslice:    c.DisableBitslice,
		})
	}
	return cfgs
}
