package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The run-set comparator. Each run set is a directory of files (or a
// list of files), one untraced run's standard output per file. For
// every workload it prints each side's failed and attempted ops, and
// for every end-to-end metric each side's median and quartiles and a
// verdict:
//
//   - better: there are at least 10 run pairs (run i of one set against
//     run i of the other), the second set wins at least 9 of every 10
//     (ties counting for neither), the medians differ by more than the
//     first set's interquartile range, every run of the second set is
//     correct and its fail ratio is no higher than the first set's;
//   - unresolved: not better, and either set's spread (IQR over
//     median) is wider than the metric's bound, or the second set
//     would be better but has too few pairs or failures that void it;
//   - worse: the second median is worse than the first by more than
//     the bound;
//   - within bound: otherwise.
//
// With one run set it prints the quartiles and flags spreads wider than
// the bound. Bounds and directions come from BENCHMARK.json.

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is the fewest run pairs a "better" verdict rests on.
const minPairs = 10

// runs is one workload's runs in a run set: metric values in file-name
// order and the outcome counts of all its runs.
type runs struct {
	metrics           map[string][]float64
	n, incorrect      int
	attempted, failed int
}

func (r *runs) failRatio() float64 { return float64(r.failed) / float64(max(r.attempted, 1)) }

// runSet maps workload → its runs.
type runSet map[string]*runs

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] <runs-A> [<runs-B>]")
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", *specPath, err)
		return 1
	}
	var sets []runSet
	for _, arg := range fs.Args() {
		rs, err := loadRunSet(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 1
		}
		sets = append(sets, rs)
	}
	var names []string
	for w := range sets[0] {
		names = append(names, w)
	}
	sort.Strings(names)
	fmt.Printf("%-17s %-21s %11s %11s %11s", "workload", "metric", "A q1", "A median", "A q3")
	if len(sets) == 2 {
		fmt.Printf(" %11s %11s %11s  %-5s", "B q1", "B median", "B q3", "wins")
	}
	fmt.Println("  verdict")
	for _, w := range names {
		ra, rb := sets[0][w], sets[1%len(sets)][w]
		for i, r := range []*runs{ra, rb}[:len(sets)] {
			if r == nil {
				fmt.Printf("%-17s %c: no runs\n", w, 'A'+i)
				continue
			}
			fmt.Printf("%-17s %c: %d runs, %d incorrect, failed %d/%d ops\n", w, 'A'+i, r.n, r.incorrect, r.failed, r.attempted)
		}
		for _, m := range spec.EndToEnd {
			a := ra.metrics[m.Name]
			if len(a) < 2 {
				continue
			}
			qa := quartiles(a)
			fmt.Printf("%-17s %-21s %11.5g %11.5g %11.5g", w, m.Name, qa[0], qa[1], qa[2])
			if len(sets) == 1 {
				fmt.Printf("  spread %.3f of bound %.3f\n", spread(qa), m.Bound)
				continue
			}
			if rb == nil || len(rb.metrics[m.Name]) < 2 {
				fmt.Println("  (no runs in B)")
				continue
			}
			b := rb.metrics[m.Name]
			qb := quartiles(b)
			verdict, wins, pairs := judge(a, b, qa, qb, m.Better == "higher", m.Bound)
			if verdict == "better" {
				switch {
				case pairs < minPairs:
					verdict = fmt.Sprintf("unresolved (better, but %d pairs < %d)", pairs, minPairs)
				case rb.incorrect > 0 || rb.failRatio() > ra.failRatio():
					verdict = "unresolved (better, but B has incorrect runs or more failed ops)"
				}
			}
			fmt.Printf(" %11.5g %11.5g %11.5g  %2d/%-2d  %s\n", qb[0], qb[1], qb[2], wins, pairs, verdict)
		}
	}
	return 0
}

// judge applies the verdict rules above to parent runs a and change
// runs b.
func judge(a, b []float64, qa, qb [3]float64, higher bool, bound float64) (string, int, int) {
	better := func(x, y float64) bool { return (higher && x > y) || (!higher && x < y) }
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	gap := math.Abs(qb[1] - qa[1])
	switch {
	case 10*wins >= 9*pairs && better(qb[1], qa[1]) && gap > qa[2]-qa[0]:
		return "better", wins, pairs
	case spread(qa) > bound || spread(qb) > bound:
		return "unresolved", wins, pairs
	case better(qa[1], qb[1]) && gap > bound*math.Abs(qa[1]):
		return "worse", wins, pairs
	}
	return "within bound", wins, pairs
}

func spread(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// default "exclusive" method.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// loadRunSet reads untraced run outputs from a directory or a file:
// the "perfbench: workload=..." header names the workload and the last
// line holds the metrics.
func loadRunSet(path string) (runSet, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	rs := runSet{}
	for _, f := range files {
		w, rep, traced, err := readRun(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if traced {
			continue
		}
		r := rs[w]
		if r == nil {
			r = &runs{metrics: map[string][]float64{}}
			rs[w] = r
		}
		r.n++
		r.attempted += rep.Attempted
		r.failed += rep.Failed
		if !rep.Correct {
			r.incorrect++
		}
		for name, m := range rep.Metrics {
			r.metrics[name] = append(r.metrics[name], m.Value)
		}
	}
	return rs, nil
}

func readRun(path string) (workload string, rep report, traced bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", rep, false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last string
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "perfbench: "); ok {
			for _, field := range strings.Fields(rest) {
				k, v, _ := strings.Cut(field, "=")
				switch k {
				case "workload":
					workload = v
				case "trace":
					traced = v == "1"
				}
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return "", rep, false, err
	}
	if workload == "" {
		return "", rep, false, fmt.Errorf("no perfbench header line")
	}
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return "", rep, false, fmt.Errorf("last line is not a result: %w", err)
	}
	return workload, rep, traced, nil
}
