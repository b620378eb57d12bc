package sim

import (
	"testing"

	"repro/internal/algo/apn"
	"repro/internal/algo/bnp"
	"repro/internal/gen"
	"repro/internal/machine"
)

// benchPlan compiles an MCP schedule of a 100-node RGNOS graph — the
// per-trial workload of the Monte-Carlo study.
func benchPlan(tb testing.TB) *Plan {
	tb.Helper()
	g, err := gen.Generate("rgnos", 7, gen.Params{"v": "100", "ccr": "1"})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := bnp.MCP(g, 8)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Release()
	plan, err := Compile(s)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// benchAPNPlan compiles an MH schedule of the same graph on an
// 8-processor hypercube, with per-link message transfers.
func benchAPNPlan(tb testing.TB) *Plan {
	tb.Helper()
	g, err := gen.Generate("rgnos", 7, gen.Params{"v": "100", "ccr": "1"})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := apn.MH(g, machine.Hypercube(3))
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := CompileAPN(s)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// TestRunAllocs asserts the steady-state trial loop allocates nothing
// for clique and APN plans alike: the runtime state is pooled and the
// event heap reused, so after one warm-up run every further trial is
// allocation-free.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	opts := Options{Perturb: Perturbation{Dist: DistLognormal, TaskSpread: 0.3, CommSpread: 0.3}, Seed: 9}
	for name, plan := range map[string]*Plan{"clique": benchPlan(t), "apn": benchAPNPlan(t)} {
		trial := 0
		run := func() {
			if _, err := plan.Run(opts, trial); err != nil {
				t.Fatal(err)
			}
			trial++
		}
		run() // warm the runtime pool
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s: steady-state trial allocates %.1f objects per run, want 0", name, allocs)
		}
	}
}

// BenchmarkRun measures one perturbed discrete-event execution of a
// 100-node clique schedule.
func BenchmarkRun(b *testing.B) {
	plan := benchPlan(b)
	opts := Options{Perturb: Perturbation{Dist: DistLognormal, TaskSpread: 0.3, CommSpread: 0.3}, Seed: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(opts, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarlo measures a full 100-trial Monte-Carlo study of
// one schedule, compile included — the per-cell cost of -exp robust.
func BenchmarkMonteCarlo(b *testing.B) {
	g, err := gen.Generate("rgnos", 7, gen.Params{"v": "100", "ccr": "1"})
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Perturb: Perturbation{Dist: DistLognormal, TaskSpread: 0.3, CommSpread: 0.3}, Seed: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := bnp.MCP(g, 8)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := Compile(s)
		s.Release()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := MonteCarlo(plan, opts, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAPN measures one perturbed execution of an APN schedule
// with link contention on an 8-processor hypercube.
func BenchmarkRunAPN(b *testing.B) {
	plan := benchAPNPlan(b)
	opts := Options{Perturb: Perturbation{Dist: DistLognormal, TaskSpread: 0.3, CommSpread: 0.3}, Seed: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(opts, i); err != nil {
			b.Fatal(err)
		}
	}
}
