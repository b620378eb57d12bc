// Command perfbench is the repository's benchmark. It runs one named
// workload in a closed loop (one goroutine, each op issued when the
// previous one returns), checks every output, and prints the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a
// separately traced run. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload bnp-sweep --seed 1998 --seconds 20 --trace 0
//	bash perfbench/run.sh compare <runs-A> <runs-B>
//
// See perfbench/README.md for the workloads, the metrics and the
// layer → end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// defaultSeed is the seed the recorded digests belong to.
const defaultSeed = 1998

// An untraced run builds its inputs at least setupReps times, and
// again until setupSpan has passed (at most maxSetupReps times);
// setup_s is the median.
const (
	setupReps    = 5
	setupSpan    = time.Second
	maxSetupReps = 200
)

// stageGapLimit bounds the share of million-pipeline op time that the
// per-layer spans may leave unexplained.
const stageGapLimit = 0.05

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .bench_build/trace/<workload>-<seed>.json)")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", w.name, *seed))
	}
	rep, err := run(w, *seed, *seconds, *traced == 1, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func run(w *workload, seed int64, seconds float64, traced bool, traceOut string) (*report, error) {
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d\n", w.name, seed, seconds, b2i(traced))
	fmt.Printf("env: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit())
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	if !traced {
		var c *cycle
		var setups []float64
		for start := time.Now(); len(setups) < setupReps || (time.Since(start) < setupSpan && len(setups) < maxSetupReps); {
			runtime.GC()
			t0 := time.Now()
			var err error
			if c, err = w.setup(seed, &env{}); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		c.warmUp()
		p := runPhase(c, &env{}, seconds, 0)
		rep.summarize(w, c, seed, p)
		sample, sampleNote := p.lat, ""
		if w.latSample != nil {
			sample, sampleNote = w.latSample(c, p.lat)
			fmt.Println("latency sample:", sampleNote)
		}
		tail, tailLabel := tailLatency(sample, w.tailQ)
		fmt.Printf("latency ms: p90 %.4g  p95 %.4g  p99 %.4g  p99.9 %.4g  max %.4g\n", percentile(p.lat, 0.9)/1e6,
			percentile(p.lat, 0.95)/1e6, percentile(p.lat, 0.99)/1e6, percentile(p.lat, 0.999)/1e6, percentile(p.lat, 1)/1e6)
		for _, m := range []struct {
			name, unit string
			v          float64
			note       string
		}{
			{"setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups))},
			{"nodes_per_s", "1/s", float64(p.nodes) / (float64(p.opNS) / 1e9), fmt.Sprintf("%d nodes in %.3f s of ops", p.nodes, float64(p.opNS)/1e9)},
			{"op_ms_p50", "ms", medianNS(sample) / 1e6, sampleNote},
			{"op_ms_tail", "ms", tail / 1e6, tailLabel},
			{"peak_rss_mb", "MB", float64(obs.PeakRSSKB()) / 1024, ""},
			{"alloc_bytes_per_node", "B/node", float64(p.allocB) / float64(p.nodes), ""},
			{"allocs_per_node", "1/node", float64(p.allocN) / float64(p.nodes), ""},
		} {
			rep.Metrics[m.name] = metric{m.v, m.unit}
			printMetric(m.name, m.v, m.unit, m.note)
		}
		return rep, nil
	}

	// Traced: one set-up, an untraced phase of half the time (at least
	// one cycle), then the same ops again with spans and the program's
	// counters on. The two phases give trace.overhead_ratio.
	e := &env{tr: newTracer()}
	c, err := w.setup(seed, e)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	c.warmUp()
	bare := runPhase(c, &env{}, seconds/2, 0)
	obs.ResetMetrics()
	obs.EnableMetrics(true)
	p := runPhase(c, e, 0, len(bare.lat))
	obs.EnableMetrics(false)
	rep.summarize(w, c, seed, p)
	if err := c.probes(e); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	vals := layerValues(e.tr, p, bare)
	if want := e.tr.counts["core.calls"]; vals["core.alg.runs"] != want {
		rep.fail("core.alg.runs = %g, but the ops made %g registry calls", vals["core.alg.runs"], want)
	}
	if gap := vals["bench.stage_gap"]; w.name == "million-pipeline" && math.Abs(gap) > stageGapLimit {
		rep.fail("stage-sum check: layer spans leave %.2f%% of op time unexplained (limit %.0f%%)", 100*gap, 100*stageGapLimit)
	}
	fmt.Printf("stage-sum: layer spans cover %.2f%% of op time (gap %.2f%%)\n", 100*(1-vals["bench.stage_gap"]), 100*vals["bench.stage_gap"])
	for _, m := range layerMetrics {
		v := vals[m.name]
		rep.Metrics[m.name] = metric{v, m.unit}
		printMetric(m.name, v, m.unit, "")
	}
	if err := e.tr.writeChrome(traceOut); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(e.tr.spans), traceOut)
	return rep, nil
}

// summarize records op counts, failures and the digest check of a
// timed phase.
func (rep *report) summarize(w *workload, c *cycle, seed int64, p *phase) {
	rep.Attempted, rep.Failed = len(p.lat), p.failed
	fmt.Printf("ops: %d (%d per cycle, %.2f cycles), failed %d, checks %.3f s, wall %.3f s\n",
		len(p.lat), len(c.ops), float64(len(p.lat))/float64(len(c.ops)), p.failed, float64(p.checkNS)/1e9, p.wall.Seconds())
	if len(p.lat) <= 16 {
		for i, l := range p.lat {
			fmt.Printf("op %d %s: %.3f ms\n", i, c.ops[i%len(c.ops)].name, float64(l)/1e6)
		}
	}
	for _, f := range p.failures {
		fmt.Println("failure:", f)
	}
	fmt.Printf("fail_ratio %g (%d/%d)\n", float64(p.failed)/float64(len(p.lat)), p.failed, len(p.lat))
	if p.failed > 0 {
		rep.Correct = false
	}
	d := c.digest()
	switch want := recordedDigests[w.name]; {
	case seed != defaultSeed:
		fmt.Printf("digest %s (recorded only for seed %d)\n", d, defaultSeed)
	case d == want:
		fmt.Printf("digest %s matches the recorded digest\n", d)
	default:
		rep.fail("makespan digest %s, recorded %s", d, want)
	}
}

func (rep *report) fail(format string, args ...any) {
	rep.Correct = false
	fmt.Printf("CHECK FAILED: "+format+"\n", args...)
}

func printMetric(name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("metric %-34s %14.6g %s%s\n", name, v, unit, note)
}

// percentile is the nearest-rank q-quantile of ns latencies.
func percentile(lat []int64, q float64) float64 {
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(k, 0)])
}

// tailLatency reports op_ms_tail: the workload's declared percentile
// when at least 10 ops lie beyond it, else the highest lower percentile
// that has them, else (too few ops) the slowest op.
func tailLatency(lat []int64, q float64) (float64, string) {
	n := len(lat)
	for _, c := range []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5} {
		if c > q || q == 0 {
			continue
		}
		if n-int(math.Ceil(c*float64(n))) >= 10 {
			return percentile(lat, c), fmt.Sprintf("p%g of %d ops", 100*c, n)
		}
	}
	return percentile(lat, 1), fmt.Sprintf("slowest of %d: too few for a percentile with 10 beyond it", n)
}

func medianNS(lat []int64) float64 {
	xs := make([]float64, len(lat))
	for i, l := range lat {
		xs[i] = float64(l)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the
// build saw a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
