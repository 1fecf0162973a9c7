// Command ghostbench is the repository's wall-clock benchmark. It drives
// the real detector through four workloads — a cold host, a warm host, a
// 1000-host sharded fleet and a resident daemon under live mutations —
// checks every output against an oracle, and prints each metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 89, "failed": 0, "metrics": {"latency_ms.p50": {"value": 226.1, "unit": "ms"}, ...}}
//
// An untraced run reports the end-to-end metrics; a traced run (-trace 1)
// is a separate process that reports the per-layer metrics and writes
// its spans. Run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh -workload host-cold -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -compare bench/out/a/*.json -- bench/out/b/*.json
//
// bench/README.md explains the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"ghostbuster/internal/machine"
)

// setupFunc builds a workload's inputs from the run seed, ready to run.
// work is a temporary directory for journals and daemon state.
type setupFunc func(seed int64, sc scale, work string) (instance, error)

// instance is one set-up workload.
type instance interface {
	// run drives the workload's operation loop for dur, checking every
	// output into t. A non-nil tracer records spans around each call.
	run(dur time.Duration, tr *tracer, t *tally) *opStats
	// machines lists the workload's hosts, which the traced run's layer
	// probes drive.
	machines() []*machine.Machine
	close()
}

// tally counts operations and the ones whose output the oracle rejected.
type tally struct {
	attempted, failed int
	failures          []string // the first few, for the result file
}

// check records one operation; a non-nil err fails it.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.failures) < 20 {
			t.failures = append(t.failures, err.Error())
		}
	}
}

// opStats is what one run of an operation loop measured.
type opStats struct {
	latencies []time.Duration // the end-to-end latency of each operation
	roots     []time.Duration // wall of each root call: ScanAll, Coordinator.Sweep or Daemon.Tick
	virtual   []time.Duration // virtual time each root call charged
	late      []time.Duration // open-loop generator lateness

	cacheHits, cacheLookups int
	extras                  map[string]float64 // workload-specific numbers for the result file
}

// workloads are the benchmark's inputs, each with the reason it exists.
var workloads = []struct {
	name, why string
	setup     setupFunc
}{
	{"host-cold", "a 50k-file infected host scanned with a fresh cache each sweep: raw parse, interning and columnar build dominate", setupHost(false)},
	{"host-warm", "the same host with one long-lived cache and an unchanged disk: parse drops out, the high-side API walk and diff remain", setupHost(true)},
	{"fleet-1k", "1000 tiny resident hosts in 4 journaled shards: the control plane dominates, per-host scan work is minimal", setupFleet},
	{"daemon-delta", "a daemon over 200 hosts under open-loop mutations: delta sweeps, journaling and HTTP/SSE are on the path to detection", setupDaemon},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env stamps a result with what it ran on.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
}

// validity flags runs whose numbers should not be compared.
type validity struct {
	// LateP99 is the open-loop generator's lateness; above maxLate the
	// offered load was not the scheduled one.
	LateP99 float64 `json:"loadgen.late_ms.p99"`
	// TraceOverhead is the traced run's root-span median over the
	// untraced one's; null on an untraced run.
	TraceOverhead *float64 `json:"trace.overhead_ratio"`
	Valid         bool     `json:"valid"`
}

const maxLate = 10 // ms

// result is one run's outcome: its JSON form is the result file, and
// Correct, Attempted, Failed and Metrics alone form the final line.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Env       env                `json:"env"`
	Validity  validity           `json:"validity"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Extras    map[string]float64 `json:"extras,omitempty"`
}

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs the traced pass that reports the per-layer metrics")
	out := flag.String("out", "", "result file (default bench/out/<workload>.seed<n>[.trace].json); spans go beside it")
	compare := flag.Bool("compare", false, "compare result files: -compare A... -- B...")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition holding the metric bounds, for -compare")
	flag.Parse()

	if *compare {
		regressed, err := compareRuns(flag.Args(), *spec, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ghostbench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	path := *out
	if path == "" {
		suffix := ""
		if *trace == 1 {
			suffix = ".trace"
		}
		path = filepath.Join("bench", "out", fmt.Sprintf("%s.seed%d%s.json", *name, *seed, suffix))
	}
	res, err := run(*name, *seed, *seconds, *trace == 1, fullScale, path, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghostbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghostbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "ghostbench: %d of %d operations failed the oracle: %s\n",
			res.Failed, res.Attempted, strings.Join(res.Failures, "; "))
		os.Exit(1)
	}
}

// run sets up and measures one workload, writes the result file (and,
// traced, the spans beside it) and prints every metric to w.
func run(name string, seed int64, seconds int, traced bool, sc scale, path string, w io.Writer) (*result, error) {
	var setup setupFunc
	for _, wl := range workloads {
		if wl.name == name {
			setup = wl.setup
		}
	}
	if setup == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	work, err := os.MkdirTemp("", "ghostbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	res := &result{Workload: name, Seed: seed, Seconds: seconds, Trace: traced, Env: stamp(), Samples: map[string]int{}}
	t := &tally{}
	dur := time.Duration(seconds) * time.Second
	var tr *tracer
	if traced {
		tr = newTracer()
		err = runTraced(res, setup, seed, sc, dur, work, t, tr)
	} else {
		err = runUntraced(res, setup, seed, sc, dur, work, t)
	}
	if err != nil {
		return nil, err
	}
	res.Correct, res.Attempted, res.Failed, res.Failures = t.failed == 0, t.attempted, t.failed, t.failures
	res.Validity.Valid = res.Validity.LateP99 <= maxLate
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no finite value", k)
		}
	}

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	if traced {
		if err := tr.write(filepath.Join(filepath.Dir(path), name+".spans.json")); err != nil {
			return nil, err
		}
	}
	report(w, res, path)
	return res, nil
}

// runUntraced measures the end-to-end metrics: one set-up and one
// operation loop of dur, then more set-ups so setup_s is a median.
func runUntraced(res *result, setup setupFunc, seed int64, sc scale, dur time.Duration, work string, t *tally) error {
	start := time.Now()
	inst, err := setup(seed, sc, work)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setups := []time.Duration{time.Since(start)}
	runtime.GC() // the timed loop starts from a collected heap, not from set-up garbage
	st := inst.run(dur, nil, t)
	rss := peakRSS()
	inst.close()
	// The extra set-ups come after the peak is read: the runtime zeroes
	// the spans a freed copy leaves behind when it reuses them, so a
	// second copy built in the same process touches pages a first one
	// never did, and would raise the peak above what one set-up costs.
	for len(setups) < sc.setups {
		runtime.GC()
		start := time.Now()
		inst, err := setup(seed, sc, work)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
		inst.close()
	}
	lat := millis(st.latencies)
	p50, p90 := quantile(lat, 0.5), quantile(lat, 0.9)
	// The tail is gated as its ratio to the median: the shared machine's
	// speed drifts from run to run and moves p50 and p90 together, so
	// p90 in ms would repeat the median's noise, while the ratio isolates
	// the tail's shape. p90 in ms is still reported, as an extra.
	res.Metrics = map[string]metric{
		"setup_s":              {medianIn(setups, time.Second), "s"},
		"latency_ms.p50":       {p50, "ms"},
		"latency.p90_over_p50": {p90 / p50, "ratio"},
		"peak_rss_mb":          {rss, "MB"},
	}
	res.Samples["setup_s"] = len(setups)
	res.Samples["latency_ms"] = len(lat)
	res.Extras = st.extras
	if res.Extras == nil {
		res.Extras = map[string]float64{}
	}
	res.Extras["latency_ms.p90"] = p90
	q := tailQuantile(len(lat))
	res.Extras[fmt.Sprintf("latency_ms.p%.1f", 100*q)] = quantile(lat, q)
	res.Validity.LateP99 = lateP99(st.late)
	return nil
}

// runTraced measures the per-layer metrics in one process: a quarter of
// dur untraced for reference, half traced, then the layer probes over
// the workload's own hosts.
func runTraced(res *result, setup setupFunc, seed int64, sc scale, dur time.Duration, work string, t *tally, tr *tracer) error {
	inst, err := setup(seed, sc, work)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	ref := inst.run(dur/4, nil, t)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st := inst.run(dur/2, tr, t)
	runtime.ReadMemStats(&m1)
	hosts := inst.machines()
	inst.close()

	ops := float64(len(st.roots))
	overhead := medianIn(st.roots, time.Millisecond) / medianIn(ref.roots, time.Millisecond)
	hits := 0.0
	if st.cacheLookups > 0 {
		hits = float64(st.cacheHits) / float64(st.cacheLookups)
	}
	res.Metrics = map[string]metric{
		"core.cache_hit_ratio":     {hits, "ratio"},
		"runtime.alloc_mb_per_op":  {float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / ops, "MB"},
		"runtime.gc_cycles_per_op": {float64(m1.NumGC-m0.NumGC) / ops, "count"},
		"vtime.op_s":               {medianIn(st.virtual, time.Second), "s"},
		"trace.overhead_ratio":     {overhead, "ratio"},
	}
	res.Samples["roots"] = len(st.roots)
	res.Validity.TraceOverhead = &overhead
	res.Validity.LateP99 = lateP99(append(ref.late, st.late...))

	layers, err := hostLayers(hosts, dur/8, tr)
	if err != nil {
		return fmt.Errorf("host layer probe: %w", err)
	}
	fleetM, err := fleetLayers(hosts, sc, seed, work, tr)
	if err != nil {
		return fmt.Errorf("fleet layer probe: %w", err)
	}
	daemonM, err := daemonLayers(hosts, sc, seed, work, dur/8, tr)
	if err != nil {
		return fmt.Errorf("daemon layer probe: %w", err)
	}
	for _, m := range []map[string]metric{layers, fleetM, daemonM} {
		for k, v := range m {
			res.Metrics[k] = v
		}
	}
	return nil
}

// lateP99 is the generator lateness percentile in ms; a closed loop has
// no schedule to fall behind, so it reads zero.
func lateP99(late []time.Duration) float64 {
	if len(late) == 0 {
		return 0
	}
	return quantile(millis(late), 0.99)
}

// report prints the run, every metric with its unit and sample count.
func report(w io.Writer, res *result, path string) {
	mode := "end-to-end"
	if res.Trace {
		mode = "per-layer (traced)"
	}
	e := res.Env
	fmt.Fprintf(w, "ghostbench %s seed=%d seconds=%d %s  [nproc=%d GOMAXPROCS=%d %s %s commit=%s]\n",
		res.Workload, res.Seed, res.Seconds, mode, e.NProc, e.GOMAXPROCS, e.Go, e.OS, e.Commit)
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		note := ""
		base := k
		if strings.HasPrefix(k, "latency") {
			base = "latency_ms" // latency_ms.p50 and latency.p90_over_p50 count the latency samples
		}
		if n, ok := res.Samples[base]; ok {
			note = fmt.Sprintf("n=%d", n)
			if strings.Contains(k, "p90") && beyond(n, 0.9) < minBeyond {
				note += fmt.Sprintf(", only %d samples beyond p90", beyond(n, 0.9))
			}
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s %s\n", k, m.Value, m.Unit, note)
	}
	for _, k := range sortedKeys(res.Extras) {
		fmt.Fprintf(w, "  %-34s %14.4f (extra)\n", k, res.Extras[k])
	}
	v := res.Validity
	fmt.Fprintf(w, "  validity: loadgen.late_ms.p99 %.3f (limit %d) valid=%v", v.LateP99, maxLate, v.Valid)
	if v.TraceOverhead != nil {
		fmt.Fprintf(w, ", trace.overhead_ratio %.3f", *v.TraceOverhead)
	}
	fmt.Fprintf(w, "\n  oracle: %d operations, %d failed; result file %s\n", res.Attempted, res.Failed, path)
}

// stamp records the environment a result was measured in.
func stamp() env {
	e := env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			e.Commit += "+modified"
		}
	}
	return e
}

// peakRSS is the process's resident-set high-water mark (VmHWM) in MB.
// Where /proc is missing it falls back to the memory the Go runtime
// obtained from the OS.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
