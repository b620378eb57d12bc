package param

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
)

// equivalenceGraphs generates one instance per registered generator
// family for the given seed and CCR, sized to keep the full combo
// sweeps fast (mirrors the bnp equivalence suite).
func equivalenceGraphs(t *testing.T, seed int64, ccr float64) map[string]*dag.Graph {
	t.Helper()
	out := map[string]*dag.Graph{}
	for _, fam := range gen.Generators() {
		params := gen.Params{}
		if fam.Random {
			params["v"] = "50"
			params["ccr"] = fmt.Sprint(ccr)
		}
		if fam.Name == "psg" {
			// The psg meta-generator requires a graph name; its members
			// are also registered individually and covered that way.
			params["name"] = "wu-gajski-18"
		}
		g, err := gen.Generate(fam.Name, seed, params)
		if err != nil {
			t.Fatalf("generate %s: %v", fam.Name, err)
		}
		out[fam.Name] = g
	}
	return out
}

func TestCombosEnumeration(t *testing.T) {
	combos := Combos()
	if len(combos) != 60 {
		t.Fatalf("Combos() = %d schedulers, want 60", len(combos))
	}
	seen := map[string]bool{}
	for _, c := range combos {
		name := c.Name()
		if seen[name] {
			t.Errorf("duplicate combo name %q", name)
		}
		seen[name] = true
		if strings.Count(name, "/") != 3 {
			t.Errorf("combo name %q is not metric/rule/slot/regime", name)
		}
		parsed, err := ParseCombo(name)
		if err != nil {
			t.Errorf("ParseCombo(%q): %v", name, err)
		} else if parsed != c {
			t.Errorf("ParseCombo(%q) = %+v, want %+v", name, parsed, c)
		}
	}
}

func TestParseComboErrors(t *testing.T) {
	for _, bad := range []string{
		"", "sl", "sl/est", "sl/est/ni", "sl/est/ni/st/x",
		"xx/est/ni/st", "sl/xx/ni/st", "sl/est/xx/st", "sl/est/ni/xx",
	} {
		if _, err := ParseCombo(bad); err == nil {
			t.Errorf("ParseCombo(%q) succeeded, want error", bad)
		}
	}
}

func TestRegistry(t *testing.T) {
	named := Named()
	wantCombos := map[string]string{
		"HLFET": "sl/est/ni/st",
		"MCP":   "alap/est/ins/st",
		"ETF":   "sl/est/ni/dy",
		"DLS":   "dl/est/ni/dy",
	}
	if len(named) < len(wantCombos) {
		t.Fatalf("Named() = %d registrations, want at least %d", len(named), len(wantCombos))
	}
	for i := 1; i < len(named); i++ {
		if named[i-1].Name >= named[i].Name {
			t.Fatalf("Named() not sorted: %q before %q", named[i-1].Name, named[i].Name)
		}
	}
	for name, combo := range wantCombos {
		c, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missing", name)
		}
		if c.Name() != combo {
			t.Errorf("Lookup(%q) = %s, want %s", name, c.Name(), combo)
		}
	}
	if _, ok := Lookup("no-such-scheduler"); ok {
		t.Error("Lookup of unregistered name succeeded")
	}
}

func TestScheduleArgErrors(t *testing.T) {
	b := dag.NewBuilder()
	b.AddNode(1)
	g := b.MustBuild()
	c := Combo{MetricSL, RuleEST, SlotNonInsertion, RegimeStatic}
	if _, err := c.Schedule(nil, 2, nil); err == nil {
		t.Error("Schedule(nil graph) succeeded")
	}
	if _, err := c.Schedule(g, 0, nil); err == nil {
		t.Error("Schedule with 0 processors succeeded")
	}
	if _, err := (Combo{Metric: Metric(99)}).Schedule(g, 2, nil); err == nil {
		t.Error("Schedule of invalid combo succeeded")
	}
	for _, speeds := range [][]float64{
		{1.0},              // wrong length
		{1.0, 0.0},         // zero
		{1.0, -2.0},        // negative
		{1.0, math.Inf(1)}, // infinite
		{1.0, math.NaN()},  // NaN
	} {
		if _, err := c.Schedule(g, 2, speeds); err == nil {
			t.Errorf("Schedule with speeds %v succeeded, want error", speeds)
		}
	}
}

// TestAllCombosValid runs every point of the component space on one
// graph per family, homogeneous and heterogeneous, and checks the
// schedules are complete and constraint-clean.
func TestAllCombosValid(t *testing.T) {
	het := []float64{1.0, 2.5, 4.0, 1.5}
	graphs := equivalenceGraphs(t, 7, 1.0)
	for famName, g := range graphs {
		for _, speeds := range [][]float64{nil, het} {
			for _, c := range Combos() {
				s, err := c.Schedule(g, len(het), speeds)
				if err != nil {
					t.Fatalf("%s on %s (speeds=%v): %v", c.Name(), famName, speeds, err)
				}
				if !s.Complete() {
					t.Fatalf("%s on %s: incomplete schedule", c.Name(), famName)
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("%s on %s (speeds=%v): invalid schedule: %v", c.Name(), famName, speeds, err)
				}
				s.Release()
			}
		}
	}
}

// TestDocumentedDegeneracies pins the two identities called out in the
// package doc: MetricDL under RegimeStatic equals MetricSL, and on
// homogeneous machines RuleDL schedules exactly like RuleEST (their
// objectives coincide when every execution time is the node weight).
func TestDocumentedDegeneracies(t *testing.T) {
	graphs := equivalenceGraphs(t, 11, 2.0)
	for famName, g := range graphs {
		for _, slot := range []Slot{SlotNonInsertion, SlotInsertion} {
			a, err := Combo{MetricDL, RuleEST, slot, RegimeStatic}.Schedule(g, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Combo{MetricSL, RuleEST, slot, RegimeStatic}.Schedule(g, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Errorf("dl/est/%s/st diverges from sl/est/%s/st on %s", slot, slot, famName)
			}
			a.Release()
			b.Release()
			for _, regime := range []Regime{RegimeStatic, RegimeDynamic} {
				d, err := Combo{MetricSL, RuleDL, slot, regime}.Schedule(g, 4, nil)
				if err != nil {
					t.Fatal(err)
				}
				e, err := Combo{MetricSL, RuleEST, slot, regime}.Schedule(g, 4, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d.String() != e.String() {
					t.Errorf("homogeneous sl/dl/%s/%s diverges from sl/est/%s/%s on %s",
						slot, regime, slot, regime, famName)
				}
				d.Release()
				e.Release()
			}
		}
	}
}

// TestHeterogeneousEFTGolden pins the canonical separation of the
// processor rules on a heterogeneous machine: two independent tasks of
// weight 8 on processors with speeds {1, 4}. RuleEST ties both
// processors at start 0 and wastes the fast one on only one task
// (makespan 8); RuleEFT stacks both tasks on the fast processor
// (makespan 4) — the HEFT-style placement.
func TestHeterogeneousEFTGolden(t *testing.T) {
	b := dag.NewBuilder()
	na := b.AddNode(8)
	nb := b.AddNode(8)
	g := b.MustBuild()
	speeds := []float64{1.0, 4.0}

	est, err := Combo{MetricSL, RuleEST, SlotNonInsertion, RegimeStatic}.Schedule(g, 2, speeds)
	if err != nil {
		t.Fatal(err)
	}
	defer est.Release()
	if got := est.Makespan(); got != 8 {
		t.Errorf("EST het makespan = %d, want 8\n%s", got, est)
	}
	if est.ProcOf(na) != 0 || est.ProcOf(nb) != 1 {
		t.Errorf("EST placement = {%d, %d}, want {0, 1}\n%s", est.ProcOf(na), est.ProcOf(nb), est)
	}

	eft, err := Combo{MetricSL, RuleEFT, SlotNonInsertion, RegimeStatic}.Schedule(g, 2, speeds)
	if err != nil {
		t.Fatal(err)
	}
	defer eft.Release()
	if got := eft.Makespan(); got != 4 {
		t.Errorf("EFT het makespan = %d, want 4\n%s", got, eft)
	}
	if eft.ProcOf(na) != 1 || eft.ProcOf(nb) != 1 {
		t.Errorf("EFT placement = {%d, %d}, want both on fast processor 1\n%s",
			eft.ProcOf(na), eft.ProcOf(nb), eft)
	}
	if eft.FinishOf(na) != 2 || eft.FinishOf(nb) != 4 {
		t.Errorf("EFT finishes = {%d, %d}, want {2, 4} (exec time ceil(8/4)=2)\n%s",
			eft.FinishOf(na), eft.FinishOf(nb), eft)
	}
}
