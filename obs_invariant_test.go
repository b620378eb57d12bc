package taskgraph

// The observability invariant: metrics and decision tracing never
// change an output byte. These tests pin it at both ends of the stack —
// every algorithm's schedule timeline on every generator family, and
// whole experiment tables.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/algo/apn"
	"repro/internal/algo/bnp"
	"repro/internal/algo/unc"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/obs"
)

// obsOff makes sure the test leaves the process with observability
// fully disabled, the state every other test assumes.
func obsOff(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		obs.SetTracer(nil)
		obs.EnableMetrics(false)
	})
}

// invariantGraphs is one instance per registered generator family,
// sized to keep the quadratic algorithms fast.
func invariantGraphs(t *testing.T) map[string]*dag.Graph {
	t.Helper()
	out := map[string]*dag.Graph{}
	for _, fam := range gen.Generators() {
		params := gen.Params{}
		if fam.Random {
			params["v"] = "40"
			params["ccr"] = "1.0"
		}
		if fam.Name == "psg" {
			params["name"] = "wu-gajski-18"
		}
		g, err := gen.Generate(fam.Name, 5, params)
		if err != nil {
			t.Fatalf("generate %s: %v", fam.Name, err)
		}
		out[fam.Name] = g
	}
	return out
}

// scheduleTimeline runs one algorithm through its class entry point and
// returns the schedule's full textual timeline.
func scheduleTimeline(t *testing.T, a core.Algorithm, g *dag.Graph, procs int, topo *machine.Topology) string {
	t.Helper()
	switch a.Class {
	case core.BNP:
		s, err := bnp.Algorithms()[a.Name](g, procs)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		return s.String()
	case core.UNC:
		s, err := unc.Algorithms()[a.Name](g)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		return s.String()
	case core.APN:
		s, err := apn.Algorithms()[a.Name](g, topo)
		if err != nil {
			t.Fatal(err)
		}
		return s.String()
	}
	t.Fatalf("unexpected class %s", a.Class)
	return ""
}

// TestObsInvariantAllAlgorithms schedules every registered algorithm on
// every generator family twice — observability fully off, then with
// metrics on and a live decision tracer bracketing the run — and
// requires byte-identical timelines. It also requires the trace to be
// non-empty, so the invariant is not satisfied vacuously.
func TestObsInvariantAllAlgorithms(t *testing.T) {
	obsOff(t)
	graphs := invariantGraphs(t)
	topo := machine.Hypercube(3)
	const procs = 8
	for famName, g := range graphs {
		for _, a := range core.All() {
			baseline := scheduleTimeline(t, a, g, procs, topo)

			var trace bytes.Buffer
			obs.EnableMetrics(true)
			tr := obs.NewTracer(&trace, obs.TraceJSONL)
			obs.SetTracer(tr)
			tr.BeginRun(a.Name, string(a.Class), g.NumNodes(), procs)
			traced := scheduleTimeline(t, a, g, procs, topo)
			tr.EndRun()
			obs.SetTracer(nil)
			obs.EnableMetrics(false)
			if err := tr.Close(); err != nil {
				t.Fatalf("%s on %s: tracer: %v", a.Name, famName, err)
			}

			if traced != baseline {
				t.Errorf("%s on %s: timeline changed under observability\nbaseline:\n%s\ntraced:\n%s",
					a.Name, famName, baseline, traced)
			}
			if !strings.Contains(trace.String(), `"type":"place"`) {
				t.Errorf("%s on %s: tracer recorded no placements", a.Name, famName)
			}
		}
	}
}

// TestObsInvariantParameterizedSpace extends the invariant over a
// sample of the parameterized scheduler space, through the measured
// core entry point (the same bracket dagbench runs use).
func TestObsInvariantParameterizedSpace(t *testing.T) {
	obsOff(t)
	g, err := gen.Generate("rgnos", 6, gen.Params{"v": "40", "ccr": "1.0"})
	if err != nil {
		t.Fatal(err)
	}
	combos := core.Parameterized()
	if len(combos) == 0 {
		t.Fatal("no parameterized combos registered")
	}
	// Every 7th combo samples all four component axes without running
	// the full 60-point space.
	for i := 0; i < len(combos); i += 7 {
		a := combos[i]
		base, err := a.Run(g, 8, nil)
		if err != nil {
			t.Fatal(err)
		}

		obs.EnableMetrics(true)
		var trace bytes.Buffer
		tr := obs.NewTracer(&trace, obs.TraceJSONL)
		obs.SetTracer(tr)
		got, err := a.Run(g, 8, nil)
		obs.SetTracer(nil)
		obs.EnableMetrics(false)
		if err != nil {
			t.Fatal(err)
		}

		if got.Length != base.Length || got.Procs != base.Procs || got.NSL != base.NSL {
			t.Errorf("%s: result changed under observability: (%d,%d,%g) vs (%d,%d,%g)",
				a.Name, got.Length, got.Procs, got.NSL, base.Length, base.Procs, base.NSL)
		}
		if !strings.Contains(trace.String(), `"type":"place"`) {
			t.Errorf("%s: tracer recorded no placements", a.Name)
		}
	}
}

// TestObsInvariantExperimentOutput pins the invariant on whole
// experiment tables: a serial run with metrics and tracing enabled
// produces byte-identical stdout to a bare run. table6 is excluded (its
// cells are wall-clock timings, documented as run-varying).
func TestObsInvariantExperimentOutput(t *testing.T) {
	obsOff(t)
	for _, id := range []string{"table1", "fig2"} {
		cfg := core.Config{Seed: 1998, Scale: core.Quick, Workers: 1, Cache: core.NewSuiteCache()}

		var base bytes.Buffer
		cfg.Out = &base
		if err := core.RunExperiment(id, cfg); err != nil {
			t.Fatalf("%s: %v", id, err)
		}

		obs.EnableMetrics(true)
		var trace bytes.Buffer
		tr := obs.NewTracer(&trace, obs.TraceChrome)
		obs.SetTracer(tr)
		var traced bytes.Buffer
		cfg.Out = &traced
		err := core.RunExperiment(id, cfg)
		obs.SetTracer(nil)
		obs.EnableMetrics(false)
		if err != nil {
			t.Fatalf("%s traced: %v", id, err)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("%s: tracer: %v", id, err)
		}

		if !bytes.Equal(base.Bytes(), traced.Bytes()) {
			t.Errorf("%s: output changed under observability (%d vs %d bytes)",
				id, base.Len(), traced.Len())
		}
		if trace.Len() == 0 {
			t.Errorf("%s: tracer recorded nothing", id)
		}
	}
}

// TestDecisionTraceMatchesDigest pins the content of the decision trace,
// not just its validity: the JSONL trace of `dagbench -exp table1,fig4
// -scale quick` (every registry algorithm, the four APN ones included)
// must hash to the digest recorded in
// internal/core/testdata/trace_quick.sha256. Any change to a placement,
// its candidate list or its priority fails here. An intentional trace
// change updates the digest in the same commit:
//
//	dagbench -exp table1,fig4 -scale quick -trace t.jsonl
//	sha256sum < t.jsonl | cut -d' ' -f1 > internal/core/testdata/trace_quick.sha256
func TestDecisionTraceMatchesDigest(t *testing.T) {
	obsOff(t)
	want, err := os.ReadFile("internal/core/testdata/trace_quick.sha256")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	tr := obs.NewTracer(h, obs.TraceJSONL)
	obs.SetTracer(tr)
	cfg := core.Config{Seed: 1998, Scale: core.Quick, Workers: 1, Cache: core.NewSuiteCache(), Out: io.Discard}
	for _, id := range []string{"table1", "fig4"} {
		if err := core.RunExperiment(id, cfg); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	obs.SetTracer(nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != strings.TrimSpace(string(want)) {
		t.Errorf("decision trace digest %s, recorded %s", got, strings.TrimSpace(string(want)))
	}
}
