package param

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/sched"
)

// TestEngineWarmRunAllocs asserts that warm runs of the classic combos
// allocate nothing: HLFET, ETF and DLS through the pooled Schedule entry
// point, and MCP's placement loop given its priority key (computing the
// ALAP-list order itself allocates per graph).
func TestEngineWarmRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	g, err := gen.Generate("rgnos", 9, gen.Params{"v": "80", "ccr": "1.0"})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	const procs = 8
	pooled := func(name string) func() {
		c, ok := Lookup(name)
		if !ok {
			t.Fatalf("no combo %q", name)
		}
		return func() {
			s, err := c.Schedule(g, procs, nil)
			if err != nil {
				t.Fatal(err)
			}
			s.Release()
		}
	}
	mcp, _ := Lookup("MCP")
	e := new(engine)
	e.lv.Compute(g)
	key := e.priorityKey(mcp.Metric, g)
	s := sched.New(g, procs)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"HLFET", pooled("HLFET")},
		{"ETF", pooled("ETF")},
		{"DLS", pooled("DLS")},
		{"MCP", func() {
			s.Reset(g, procs)
			e.runStatic(mcp, g, s, key)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run() // warm capacities and pools
			if allocs := testing.AllocsPerRun(20, tc.run); allocs != 0 {
				t.Errorf("warm %s run allocates %.1f objects, want 0", tc.name, allocs)
			}
		})
	}
}
