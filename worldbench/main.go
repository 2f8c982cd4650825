// Command worldbench measures the deployed world — `cmd/cluster -role
// world` behind the session gateway — end to end and layer by layer: the
// tick latency players feel, the stall a world checkpoint puts into the tick
// loop, and how long each recovery rung keeps the world down. See README.md
// for the workloads, the metrics and how to run it.
//
//	bash worldbench/run.sh --workload battle --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. A recovery that fails, lands off the
// crash tick or diverges from the serial reference ends the run with exit
// status 1 and no metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// processStart anchors the first set-up sample at process start.
var processStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one run's settings.
type config struct {
	spec     spec
	seed     int64
	measure  time.Duration
	traced   bool
	stateDir string
}

const (
	// setupRounds is how many times a run deploys the world: setup_s is
	// their median, and the last deployment is measured.
	setupRounds = 7
	// closingCycles is how many crash cycles battle and lobby end with,
	// half of each failure kind.
	closingCycles = 24
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("worldbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "battle", "battle | lobby | outage")
	seed := fs.Int64("seed", 1, "workload seed")
	secs := fs.Int("seconds", 25, "measured seconds")
	trace := fs.Int("trace", 0, "1: per-layer metrics from a traced run")
	stateDir := fs.String("state-dir", ".bench_build/state", "directory for the world's state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := specByName(*name)
	if err != nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "worldbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *secs, *trace)
		return 2
	}
	cfg := config{spec: sp, seed: *seed, measure: time.Duration(*secs) * time.Second,
		traced: *trace == 1, stateDir: *stateDir}
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "worldbench: %s: %v\n", sp.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "worldbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner drives one deployed world through its phases.
type runner struct {
	cfg  config
	s    *system
	pos  int     // ticks run in the current crash cycle
	next failure // the kind the next cycle ends with
}

func runWorkload(cfg config, out io.Writer) (*result, error) {
	root := filepath.Join(cfg.stateDir, fmt.Sprintf("%s-%d", cfg.spec.name, os.Getpid()))
	defer os.RemoveAll(root) //nolint:errcheck // scratch space
	fmt.Fprintf(out, "worldbench %s seed %d: %s\n", cfg.spec.name, cfg.seed, cfg.spec.why)
	fmt.Fprintf(out, "state directory %s (%s); flush policy: WAL unsynced per tick (SyncEveryTick off), "+
		"COU images back to back, world checkpoint every %d ticks (crash cycles: after tick %d of %d), devices unthrottled\n",
		root, fsType(cfg.stateDir), checkpointEvery, cycleCheckpointAt, cycleTicks)

	r, setup, err := deploy(cfg, root, setupRounds)
	if err != nil {
		return nil, err
	}
	defer r.s.close()
	// Every run starts measuring from the same heap: the earlier
	// deployments' garbage collected.
	runtime.GC()

	// ticks is the phase the tick-loop metrics come from, outs the one the
	// crash cycles' metrics come from: the same phase for outage, and the
	// closing cycles for battle and lobby.
	base := newPhase(false)
	ticks, d := base, cfg.measure
	if cfg.traced {
		d /= 2
		if err := r.measure(base, d, 0); err != nil {
			return nil, err
		}
		telemetry.Enable()
		ticks = newPhase(true)
	}
	if err := r.measure(ticks, d, windowTicks); err != nil {
		return nil, err
	}
	outs := ticks
	if !cfg.spec.outage {
		outs = newPhase(cfg.traced)
		outs.spans = ticks.spans // one trace-ID space
		if err := r.closing(outs, closingCycles); err != nil {
			return nil, err
		}
	}
	if err := r.s.checkDevices(); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	misserved := 0
	for _, p := range distinct(base, ticks, outs) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		misserved += p.misserved
	}
	fmt.Fprintf(out, "failed_frac %.6f ratio (%d failed of %d attempted: ticks, deltas, recoveries; %d recoveries served by an unexpected rung)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted, misserved)
	if cfg.traced {
		// Next to the state directory, not in it: the state is removed.
		spans := filepath.Join(filepath.Dir(filepath.Clean(cfg.stateDir)),
			fmt.Sprintf("spans-%s-%d.json", cfg.spec.name, cfg.seed))
		err = layerMetrics(res, r.s, base, ticks, outs, spans, out)
	} else {
		err = endToEnd(res, ticks, outs, setup, out)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// distinct drops repeated phases.
func distinct(ps ...*phase) []*phase {
	var out []*phase
	for _, p := range ps {
		if !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// deploy builds the world rounds times, each time running it to its first
// world checkpoint, and keeps the last one. It returns each deployment's
// set-up time in seconds, the first counted from process start.
func deploy(cfg config, root string, rounds int) (*runner, samples, error) {
	r := &runner{cfg: cfg}
	var setup samples
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		s, err := newSystem(cfg.spec, root, cfg.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		r.s = s
		if err := r.warmUp(); err != nil {
			s.close()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
		if i < rounds-1 {
			s.close()
			runtime.GC()
		}
	}
	return r, setup, nil
}

// warmUp runs the world to its first world checkpoint, so lazily built
// state exists before anything is timed.
func (r *runner) warmUp() error {
	p := newPhase(false)
	for r.s.c.NextTick() < checkpointEvery {
		if err := r.tick(p); err != nil {
			return err
		}
	}
	return r.checkpoint(p)
}

func (r *runner) tick(p *phase) error {
	t, err := r.s.tick()
	if err != nil {
		return fmt.Errorf("tick %d: %w", r.s.c.NextTick(), err)
	}
	p.addTick(r.s, t)
	return nil
}

func (r *runner) checkpoint(p *phase) error {
	start := time.Now()
	wall, err := r.s.checkpoint()
	if err != nil {
		return fmt.Errorf("checkpoint at tick %d: %w", r.s.c.NextTick(), err)
	}
	p.addCheckpoint(r.s, start, wall)
	return nil
}

// maxPhase bounds a phase that is still short of minTicks.
const maxPhase = 100 * time.Second

// measure runs the tick loop for d: steady ticks with a world checkpoint
// every checkpointEvery ticks, or crash cycles throughout for outage. It
// runs past d until it has minTicks ticks.
func (r *runner) measure(p *phase, d time.Duration, minTicks int) error {
	start := time.Now()
	more := func() bool {
		if time.Since(start) > maxPhase {
			return false
		}
		return time.Since(start) < d || p.ticks < minTicks
	}
	p.openSegment(r.s)
	defer p.closeSegment(r.s)
	if r.cfg.spec.outage {
		// Whole pairs of cycles, so both failure kinds are measured alike.
		for cycles := 0; more() || cycles%2 == 1; cycles++ {
			if err := r.cycle(p); err != nil {
				return err
			}
		}
	} else {
		for more() {
			if err := r.tick(p); err != nil {
				return err
			}
			if r.s.c.NextTick()%checkpointEvery == 0 {
				if err := r.checkpoint(p); err != nil {
					return err
				}
			}
		}
	}
	if p.ticks < minTicks {
		return fmt.Errorf("only %d ticks in %v; p99 needs %d", p.ticks, maxPhase, minTicks)
	}
	return nil
}

// closing runs the n crash cycles battle and lobby end with.
func (r *runner) closing(p *phase, n int) error {
	p.openSegment(r.s)
	defer p.closeSegment(r.s)
	r.pos = 0
	for i := 0; i < n; i++ {
		if err := r.cycle(p); err != nil {
			return err
		}
	}
	return nil
}

// cycle runs the rest of a crash cycle — ticks, a world checkpoint after
// cycleCheckpointAt of them — then crashes and recovers the world. The
// recovery's first tick is the next cycle's first.
func (r *runner) cycle(p *phase) error {
	for ; r.pos < cycleTicks; r.pos++ {
		if r.pos == cycleCheckpointAt {
			if err := r.checkpoint(p); err != nil {
				return err
			}
		}
		if err := r.tick(p); err != nil {
			return err
		}
	}
	p.closeSegment(r.s)
	// Every crash starts from a collected heap, so where the garbage
	// collector happens to be in its cycle does not add to one downtime
	// sample and not another.
	runtime.GC()
	o, err := r.s.crashRecover(r.next)
	if err != nil {
		return err
	}
	p.addOutage(o)
	p.openSegment(r.s)
	r.next = 1 - r.next
	r.pos = 1
	return nil
}

// endToEnd fills the untraced run's metrics.
func endToEnd(res *result, p, outs *phase, setup samples, out io.Writer) error {
	p99s, rates := p.windowP99(), p.windowRates()
	if len(p99s) == 0 {
		return fmt.Errorf("only %d ticks: tick_ms_p99 needs a window of %d", p.ticks, windowTicks)
	}
	fmt.Fprintf(out, "tick latency (intent → visible): %s\n", p.tickLat.describe())
	fmt.Fprintf(out, "p99 per %d-tick window: %s ms\n", windowTicks, list(p99s))
	fmt.Fprintf(out, "updates/s per %d checkpoint intervals: %s\n", rateCheckpoints, list(rates))
	fmt.Fprintf(out, "world checkpoint stall: %s\n", p.checkpoints.describe())
	for i, m := range rungs {
		fmt.Fprintf(out, "downtime via %s: %s\n", m, outs.downtime[i].describe())
	}
	fmt.Fprintf(out, "set-up: %d deployments: %s s\n", len(setup), list(setup))
	vals := []struct {
		name, unit string
		v          float64
	}{
		{"tick_ms_p50", "ms", p.tickLat.median()},
		{"tick_ms_p99", "ms", p99s.median()},
		{"updates_per_s", "1/s", rates.median()},
		{"checkpoint_ms_p50", "ms", p.checkpoints.median()},
		{"downtime_peerram_ms_p50", "ms", outs.downtime[0].median()},
		{"downtime_disk_ms_p50", "ms", outs.downtime[1].median()},
		{"mem_peak_mb", "MB", peakRSSMB()},
		{"setup_s", "s", setup.median()},
	}
	for _, v := range vals {
		if err := put(res, v.name, v.unit, v.v, out); err != nil {
			return err
		}
	}
	return nil
}

// list renders a short series compactly.
func list(s samples) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = strconv.FormatFloat(v, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}

// put adds one metric and prints it; a metric with no value fails the run.
func put(res *result, name, unit string, v float64, out io.Writer) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s has no value", name)
	}
	res.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(out, "%-40s %14.4f %s\n", name, v, unit)
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// fsType names the filesystem dir lives on.
func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs type %#x", uint32(st.Type))
}
