package sim_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"repro/internal/algo/apn"
	"repro/internal/algo/bnp"
	"repro/internal/algo/unc"
	"repro/internal/ft"
	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
)

// goldenReplays holds SHA-256 digests of everything the replay engine
// reports for one schedule: Plan.Run makespans, full fault-injected
// ft.Results (zero-fault and faulty, under every recovery policy the
// schedule kind supports) and the sim.Stats and ft.Stats of short
// Monte-Carlo studies. One line per case: "<key> <hex digest>".
const goldenReplays = "testdata/golden_replays.txt"

// goldenSpeeds returns the heterogeneous speed vector of the het cases
// and of the runtime-speed option set.
func goldenSpeeds(n int) []float64 {
	sp := make([]float64, n)
	for i := range sp {
		sp[i] = [...]float64{1, 1.5, 0.75}[i%3]
	}
	return sp
}

// goldenOptions returns the four option sets every case replays under:
// deterministic replay, lognormal noise with eager dispatch, uniform
// noise, and lognormal noise with a runtime speed vector.
func goldenOptions(numProcs int) []sim.Options {
	return []sim.Options{
		{},
		{Perturb: sim.Perturbation{Dist: sim.DistLognormal, TaskSpread: 0.3, CommSpread: 0.3}, Policy: sim.PolicyEager, Seed: 11},
		{Perturb: sim.Perturbation{Dist: sim.DistUniform, TaskSpread: 0.4, CommSpread: 0.4}, Seed: 5},
		{Perturb: sim.Perturbation{Dist: sim.DistLognormal, TaskSpread: 0.2, CommSpread: 0.2}, Seed: 23, Speed: goldenSpeeds(numProcs)},
	}
}

// goldenFaults returns the fault models of a case, scaled to its
// static makespan: crash with repair, crash without repair and a harsh
// MTBF; APN schedules add link outages alone and on top of crashes.
func goldenFaults(static int64, apnPlan bool) []sim.FaultModel {
	at := func(d int64) int64 { return max(1, static/d) }
	fms := []sim.FaultModel{
		{MTBF: at(2), MeanRepair: at(10)},
		{MTBF: at(1)},
		{MTBF: at(4), MeanRepair: at(10)},
	}
	if apnPlan {
		fms = append(fms,
			sim.FaultModel{LinkMTBF: at(1), MeanOutage: at(20)},
			sim.FaultModel{MTBF: at(2), MeanRepair: at(10), LinkMTBF: at(2), MeanOutage: at(20)},
		)
	}
	return fms
}

func readGoldenReplays(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenReplays)
	if err != nil {
		t.Fatalf("open golden digests: %v", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		out[key] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read golden digests: %v", err)
	}
	return out
}

// replayDigest runs the full replay grid of one compiled schedule and
// hashes every reported number.
func replayDigest(t *testing.T, plan *sim.Plan, x *ft.Exec, numTasks int, apnPlan bool) string {
	t.Helper()
	h := sha256.New()
	writeResult := func(h hash.Hash, r ft.Result) {
		fmt.Fprintf(h, "%t %d %d %d %d %v %v %v\n", r.Finished, r.Makespan, r.Horizon, r.Crashes, r.Lost, r.Busy, r.Idle, r.Down)
	}
	static := plan.Static()
	policies := ft.Policies(max(1, static/16), max(1, numTasks/10))
	if apnPlan {
		policies = policies[:1]
	}
	opts := goldenOptions(x.NumProcs())
	for oi, o := range opts {
		for trial := 0; trial < 5; trial++ {
			mk, err := plan.Run(o, trial)
			if err != nil {
				t.Fatalf("opts[%d] trial %d: %v", oi, trial, err)
			}
			fmt.Fprintf(h, "run %d %d %d\n", oi, trial, mk)
			r, err := x.Run(ft.Options{Sim: o}, trial)
			if err != nil {
				t.Fatalf("opts[%d] trial %d: %v", oi, trial, err)
			}
			writeResult(h, r)
		}
	}
	for fi, fm := range goldenFaults(static, apnPlan) {
		for _, pol := range policies {
			for oi, o := range opts {
				for trial := 0; trial < 5; trial++ {
					r, err := x.Run(ft.Options{Sim: o, Faults: fm, Recovery: pol}, trial)
					if err != nil {
						t.Fatalf("faults[%d] %s opts[%d] trial %d: %v", fi, pol.Name(), oi, trial, err)
					}
					fmt.Fprintf(h, "fault %d %s %d %d ", fi, pol.Name(), oi, trial)
					writeResult(h, r)
				}
			}
		}
	}
	st, err := sim.MonteCarlo(plan, opts[3], 8)
	if err != nil {
		t.Fatalf("sim MonteCarlo: %v", err)
	}
	fmt.Fprintf(h, "sim.mc %+v\n", st)
	for _, pol := range policies {
		fst, err := ft.MonteCarlo(x, ft.Options{Sim: opts[3], Faults: goldenFaults(static, apnPlan)[0], Recovery: pol, Deadline: static + static/2}, 8)
		if err != nil {
			t.Fatalf("ft MonteCarlo %s: %v", pol.Name(), err)
		}
		fmt.Fprintf(h, "ft.mc %s %+v\n", pol.Name(), fst)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReplayMatchesGoldenDigests pins the replay engine to digests
// recorded before the fault-injected and fault-free replays shared one
// runtime: MCP and DSC clique schedules (homogeneous and with one speed
// vector) and MH and BSA schedules on Hypercube(3), over every
// registered generator family and seeds 1–2. A missing or differing
// case prints the line the golden file would need.
func TestReplayMatchesGoldenDigests(t *testing.T) {
	golden := readGoldenReplays(t)
	topo := machine.Hypercube(3)
	check := func(key string, plan *sim.Plan, x *ft.Exec, numTasks int, apnPlan bool) {
		t.Helper()
		got := replayDigest(t, plan, x, numTasks, apnPlan)
		if want, ok := golden[key]; !ok {
			t.Errorf("no golden digest: %s %s", key, got)
		} else if got != want {
			t.Errorf("golden digest mismatch: %s %s (want %s)", key, got, want)
		}
	}
	for _, seed := range []int64{1, 2} {
		for _, f := range gen.Generators() {
			params := gen.Params{}
			if f.Random {
				params = gen.Params{"v": "40", "ccr": "1"}
			} else if f.Name == "psg" {
				params = gen.Params{"name": "kwok-ahmad-9"}
			}
			g, err := gen.Generate(f.Name, seed, params)
			if err != nil {
				t.Fatalf("generate %s: %v", f.Name, err)
			}
			n := g.NumNodes()
			for _, het := range []bool{false, true} {
				machineKind := "hom"
				var mcpSpeeds, dscSpeeds []float64
				if het {
					machineKind = "het"
					mcpSpeeds, dscSpeeds = goldenSpeeds(8), goldenSpeeds(max(n, 1))
				}
				mcp, err := bnp.ScheduleHet("MCP", g, 8, mcpSpeeds)
				if err != nil {
					t.Fatalf("MCP on %s: %v", f.Name, err)
				}
				dsc, err := unc.ScheduleHet("DSC", g, dscSpeeds)
				if err != nil {
					t.Fatalf("DSC on %s: %v", f.Name, err)
				}
				for _, c := range []struct {
					alg string
					s   *sched.Schedule
				}{{"MCP", mcp}, {"DSC", dsc}} {
					plan, err := sim.Compile(c.s)
					if err != nil {
						t.Fatalf("%s on %s: %v", c.alg, f.Name, err)
					}
					x, err := ft.Compile(c.s)
					if err != nil {
						t.Fatalf("%s on %s: %v", c.alg, f.Name, err)
					}
					check(fmt.Sprintf("%s/%s/%s/seed=%d", c.alg, machineKind, f.Name, seed), plan, x, n, false)
					c.s.Release()
				}
			}
			for _, alg := range []string{"MH", "BSA"} {
				s, err := apn.ScheduleHet(alg, g, topo, nil)
				if err != nil {
					t.Fatalf("%s on %s: %v", alg, f.Name, err)
				}
				plan, err := sim.CompileAPN(s)
				if err != nil {
					t.Fatalf("%s on %s: %v", alg, f.Name, err)
				}
				x, err := ft.CompileAPN(s)
				if err != nil {
					t.Fatalf("%s on %s: %v", alg, f.Name, err)
				}
				check(fmt.Sprintf("%s/apn/%s/seed=%d", alg, f.Name, seed), plan, x, n, true)
			}
		}
	}
}
