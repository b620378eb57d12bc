package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algo/apn"
	"repro/internal/algo/bnp"
	"repro/internal/algo/param"
	"repro/internal/algo/unc"
	"repro/internal/dag"
	"repro/internal/machine"
)

func smallGraph() *dag.Graph {
	rng := rand.New(rand.NewSource(4))
	b := dag.NewBuilder()
	for i := 0; i < 12; i++ {
		b.AddNode(1 + rng.Int63n(20))
	}
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			if rng.Intn(3) == 0 {
				b.AddEdge(dag.NodeID(i), dag.NodeID(j), rng.Int63n(30))
			}
		}
	}
	return b.MustBuild()
}

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registry has %d algorithms, want 15", len(all))
	}
	counts := map[Class]int{}
	for _, a := range all {
		counts[a.Class]++
	}
	if counts[BNP] != 6 || counts[UNC] != 5 || counts[APN] != 4 {
		t.Errorf("class counts = %v, want BNP:6 UNC:5 APN:4", counts)
	}
	if got := Names(UNC); got[4] != "DCP" {
		t.Errorf("UNC names = %v, want DCP last", got)
	}
}

// TestRunAllClasses checks that RunOn measures the kernel its class
// package exports: on every generator family, each registry algorithm
// and each classic combo reports the length, NSL and processor count of
// the schedule from Algorithms()[name] (Combo.Schedule for PARAM) on a
// homogeneous machine, and of ScheduleHet on a heterogeneous one.
func TestRunAllClasses(t *testing.T) {
	topo := machine.Hypercube(3)
	const procs = 4
	algs := All()
	for _, reg := range param.Named() {
		algs = append(algs, ParamAlgorithm(reg.Combo))
	}
	for fam, g := range hetTestGraphs(t, 1) {
		for _, het := range []bool{false, true} {
			for _, a := range algs {
				var speeds []float64
				if het {
					switch a.Class {
					case UNC:
						speeds = componentsHetSpeeds(g.NumNodes())
					case APN:
						speeds = componentsHetSpeeds(topo.NumProcs())
					default:
						speeds = componentsHetSpeeds(procs)
					}
				}
				res, err := a.RunOn(g, procs, speeds, topo)
				if err != nil {
					t.Fatalf("%s(%s) on %s: %v", a.Name, a.Class, fam, err)
				}
				if res.Algorithm != a.Name || res.Class != a.Class {
					t.Errorf("%s: result labels wrong: %+v", a.Name, res)
				}
				var s schedule
				switch a.Class {
				case BNP:
					if het {
						s, err = bnp.ScheduleHet(a.Name, g, procs, speeds)
					} else {
						s, err = bnp.Algorithms()[a.Name](g, procs)
					}
				case UNC:
					if het {
						s, err = unc.ScheduleHet(a.Name, g, speeds)
					} else {
						s, err = unc.Algorithms()[a.Name](g)
					}
				case APN:
					if het {
						s, err = apn.ScheduleHet(a.Name, g, topo, speeds)
					} else {
						s, err = apn.Algorithms()[a.Name](g, topo)
					}
				case PARAM:
					var c param.Combo
					if c, err = param.ParseCombo(a.Name); err == nil {
						s, err = c.Schedule(g, procs, speeds)
					}
				}
				if err != nil {
					t.Fatalf("%s(%s) direct on %s: %v", a.Name, a.Class, fam, err)
				}
				if res.Length != s.Makespan() || res.NSL != s.NSL() || res.Procs != s.ProcessorsUsed() {
					t.Errorf("%s(%s) on %s, het=%v: RunOn measured length %d NSL %v procs %d, kernel gives %d %v %d",
						a.Name, a.Class, fam, het, res.Length, res.NSL, res.Procs, s.Makespan(), s.NSL(), s.ProcessorsUsed())
				}
			}
		}
	}
}

func TestAPNNeedsTopology(t *testing.T) {
	g := smallGraph()
	for _, a := range ByClass(APN) {
		if _, err := a.Run(g, 4, nil); err == nil {
			t.Errorf("%s ran without a topology", a.Name)
		}
	}
}

func TestBNPProcs(t *testing.T) {
	if BNPProcs(10) != 10 {
		t.Errorf("BNPProcs(10) = %d", BNPProcs(10))
	}
	if BNPProcs(500) != 32 {
		t.Errorf("BNPProcs(500) = %d", BNPProcs(500))
	}
}

func TestExperimentsRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 17 {
		t.Fatalf("%d experiments, want 17 (6 tables + 3 figures + 8 extensions)", len(exps))
	}
	want := []string{"table1", "table2", "table3", "table4", "table5", "table6", "fig2", "fig3", "fig4", "unccs", "tdb", "genx", "robust", "components", "adversarial", "faults", "scaling"}
	for i, e := range exps {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	var sink strings.Builder
	if err := RunExperiment("nope", Config{Out: &sink}); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestTable1Runs(t *testing.T) {
	var out strings.Builder
	if err := Table1(Config{Seed: 1, Scale: Quick, Out: &out}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"kwok-ahmad-9", "DCP", "MCP", "HLFET"} {
		if !strings.Contains(s, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestTable4Runs(t *testing.T) {
	var out strings.Builder
	if err := Table4(Config{Seed: 1, Scale: Quick, Out: &out}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"avg degradation", "no. of optimal", "v="} {
		if !strings.Contains(s, want) {
			t.Errorf("table4 output missing %q:\n%s", want, s)
		}
	}
}

func TestFigure4Runs(t *testing.T) {
	var out strings.Builder
	if err := Figure4(Config{Seed: 1, Scale: Quick, Out: &out}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"(a)", "(b)", "(c)", "Cholesky"} {
		if !strings.Contains(s, want) {
			t.Errorf("figure4 output missing %q", want)
		}
	}
}
