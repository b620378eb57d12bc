package unc

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/algo/bnp"
	"repro/internal/dag"
	"repro/internal/gen"
)

func allAlgorithms() []struct {
	name string
	run  Scheduler
} {
	m := Algorithms()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]struct {
		name string
		run  Scheduler
	}, 0, len(m))
	for _, n := range names {
		out = append(out, struct {
			name string
			run  Scheduler
		}{n, m[n]})
	}
	return out
}

func randomGraph(rng *rand.Rand, n int, commScale int64) *dag.Graph {
	b := dag.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(1 + rng.Int63n(30))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(4) == 0 {
				b.AddEdge(dag.NodeID(i), dag.NodeID(j), rng.Int63n(commScale))
			}
		}
	}
	return b.MustBuild()
}

func TestAlgorithmsRegistry(t *testing.T) {
	m := Algorithms()
	if len(m) != 5 {
		t.Fatalf("registry has %d algorithms, want 5", len(m))
	}
	for _, want := range []string{"EZ", "LC", "DSC", "MD", "DCP"} {
		if m[want] == nil {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestAllProduceValidCompleteSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	graphs := make([]*dag.Graph, 0, 10)
	for i := 0; i < 10; i++ {
		graphs = append(graphs, randomGraph(rng, 2+rng.Intn(35), 1+rng.Int63n(80)))
	}
	for _, tc := range allAlgorithms() {
		t.Run(tc.name, func(t *testing.T) {
			for gi, g := range graphs {
				s, err := tc.run(g)
				if err != nil {
					t.Fatalf("graph %d: %v", gi, err)
				}
				if !s.Complete() {
					t.Fatalf("graph %d: incomplete", gi)
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("graph %d: %v", gi, err)
				}
				if s.NSL() < 1.0-1e-9 {
					t.Fatalf("graph %d: NSL %v < 1", gi, s.NSL())
				}
			}
		})
	}
}

func TestAllDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	g := randomGraph(rng, 25, 50)
	for _, tc := range allAlgorithms() {
		s1, err := tc.run(g)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := tc.run(g)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumNodes(); v++ {
			n := dag.NodeID(v)
			if s1.ProcOf(n) != s2.ProcOf(n) || s1.StartOf(n) != s2.StartOf(n) {
				t.Fatalf("%s: node %d placed differently across runs", tc.name, v)
			}
		}
	}
}

func TestErrorAndDegenerateCases(t *testing.T) {
	for _, tc := range allAlgorithms() {
		if _, err := tc.run(nil); err == nil {
			t.Errorf("%s accepted nil graph", tc.name)
		}
		empty := dag.NewBuilder().MustBuild()
		if s, err := tc.run(empty); err != nil || s.Length() != 0 {
			t.Errorf("%s failed on empty graph: %v", tc.name, err)
		}
		b := dag.NewBuilder()
		b.AddNode(5)
		single := b.MustBuild()
		s, err := tc.run(single)
		if err != nil || s.Length() != 5 {
			t.Errorf("%s single node: length %d err %v", tc.name, s.Length(), err)
		}
	}
}

// TestChainCollapsesToOneProcessor: a linear chain with heavy
// communication must be clustered onto a single processor by every UNC
// algorithm (zeroing every edge is always a win on a chain).
func TestChainCollapsesToOneProcessor(t *testing.T) {
	b := dag.NewBuilder()
	prev := b.AddNode(2)
	var total int64 = 2
	for i := 0; i < 8; i++ {
		n := b.AddNode(3)
		total += 3
		b.AddEdge(prev, n, 40)
		prev = n
	}
	g := b.MustBuild()
	for _, tc := range allAlgorithms() {
		s, err := tc.run(g)
		if err != nil {
			t.Fatal(err)
		}
		if s.ProcessorsUsed() != 1 {
			t.Errorf("%s used %d processors on a chain, want 1\n%s", tc.name, s.ProcessorsUsed(), s)
		}
		if s.Length() != total {
			t.Errorf("%s chain length %d, want %d", tc.name, s.Length(), total)
		}
	}
}

// TestIndependentTasksStaySeparate: with no communication at all, no
// merge can ever help, so independent tasks must run fully in parallel.
func TestIndependentTasksStaySeparate(t *testing.T) {
	b := dag.NewBuilder()
	for i := 0; i < 6; i++ {
		b.AddNode(4)
	}
	g := b.MustBuild()
	for _, tc := range allAlgorithms() {
		s, err := tc.run(g)
		if err != nil {
			t.Fatal(err)
		}
		if s.Length() != 4 {
			t.Errorf("%s: independent tasks length %d, want 4\n%s", tc.name, s.Length(), s)
		}
	}
}

// forkJoin builds the canonical trade-off graph: a root, k middles, and
// a sink, where communication is expensive relative to computation.
func forkJoin(k int, w, c int64) *dag.Graph {
	b := dag.NewBuilder()
	root := b.AddNode(w)
	sink := b.AddNode(w)
	for i := 0; i < k; i++ {
		m := b.AddNode(w)
		b.AddEdge(root, m, c)
		b.AddEdge(m, sink, c)
	}
	return b.MustBuild()
}

func TestForkJoinHeavyCommSerializes(t *testing.T) {
	// With c >> k*w, the serial schedule (length (k+2)*w) beats any
	// parallel split. Every UNC algorithm except LC should find it or
	// match it. LC cannot: linear clustering only merges path-shaped
	// clusters, so the parallel middles keep their heavy edges — exactly
	// the structural weakness the paper's section 6.1 reports for LC.
	g := forkJoin(3, 2, 100)
	serial := int64(5 * 2)
	for _, tc := range allAlgorithms() {
		s, err := tc.run(g)
		if err != nil {
			t.Fatal(err)
		}
		if tc.name == "LC" {
			if s.Length() != dag.CriticalPathLength(g) {
				t.Errorf("LC: fork-join length %d, want CP length %d",
					s.Length(), dag.CriticalPathLength(g))
			}
			continue
		}
		if s.Length() > serial {
			t.Errorf("%s: fork-join length %d, want <= serial %d\n%s",
				tc.name, s.Length(), serial, s)
		}
	}
}

func TestForkJoinCheapCommParallelizes(t *testing.T) {
	// With c = 0 the parallel schedule has length 3w; no algorithm
	// should serialize the middles.
	g := forkJoin(4, 5, 0)
	for _, tc := range allAlgorithms() {
		s, err := tc.run(g)
		if err != nil {
			t.Fatal(err)
		}
		if s.Length() != 15 {
			t.Errorf("%s: zero-comm fork-join length %d, want 15", tc.name, s.Length())
		}
	}
}

// TestDCPBeatsOrMatchesWeakUNC reflects the paper's central finding: on
// communication-heavy random graphs DCP should, in aggregate, be at
// least as good as EZ and LC.
func TestDCPBeatsOrMatchesWeakUNC(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	var dcpTotal, ezTotal, lcTotal int64
	for i := 0; i < 12; i++ {
		g := randomGraph(rng, 15+rng.Intn(20), 120)
		d, err := DCP(g)
		if err != nil {
			t.Fatal(err)
		}
		e, err := EZ(g)
		if err != nil {
			t.Fatal(err)
		}
		l, err := LC(g)
		if err != nil {
			t.Fatal(err)
		}
		dcpTotal += d.Length()
		ezTotal += e.Length()
		lcTotal += l.Length()
	}
	if dcpTotal > ezTotal {
		t.Errorf("DCP total %d worse than EZ total %d", dcpTotal, ezTotal)
	}
	if dcpTotal > lcTotal {
		t.Errorf("DCP total %d worse than LC total %d", dcpTotal, lcTotal)
	}
}

// TestProcessorEconomyOrdering checks the paper's Figure 3a shape: DSC
// and LC use liberally many processors, DCP and MD comparatively few.
func TestProcessorEconomyOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var dsc, lc, dcp, md int
	for i := 0; i < 10; i++ {
		g := randomGraph(rng, 40, 30)
		sDSC, _ := DSC(g)
		sLC, _ := LC(g)
		sDCP, _ := DCP(g)
		sMD, _ := MD(g)
		dsc += sDSC.ProcessorsUsed()
		lc += sLC.ProcessorsUsed()
		dcp += sDCP.ProcessorsUsed()
		md += sMD.ProcessorsUsed()
	}
	if dcp > dsc {
		t.Errorf("DCP used more processors (%d) than DSC (%d) in aggregate", dcp, dsc)
	}
	if md > lc {
		t.Errorf("MD used more processors (%d) than LC (%d) in aggregate", md, lc)
	}
}

// TestLCClusterCountEqualsPeeledPaths: on a known graph LC's cluster
// structure is predictable: peeling the diamond's CP (a,c,d) leaves b.
func TestLCDiamondClusters(t *testing.T) {
	b := dag.NewBuilder()
	na := b.AddNode(2)
	nb := b.AddNode(3)
	nc := b.AddNode(4)
	nd := b.AddNode(1)
	b.AddEdge(na, nb, 1)
	b.AddEdge(na, nc, 5)
	b.AddEdge(nb, nd, 2)
	b.AddEdge(nc, nd, 3)
	g := b.MustBuild()
	s, err := LC(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.ProcOf(na) != s.ProcOf(nc) || s.ProcOf(nc) != s.ProcOf(nd) {
		t.Errorf("LC did not cluster the critical path a-c-d together:\n%s", s)
	}
	if s.ProcOf(nb) == s.ProcOf(na) {
		t.Errorf("LC placed b in the CP cluster:\n%s", s)
	}
}

// TestDSCReducesJoinStart: DSC must zero the heavier incoming edge of a
// join when that reduces the join node's start time.
func TestDSCReducesJoinStart(t *testing.T) {
	b := dag.NewBuilder()
	x := b.AddNode(4)
	y := b.AddNode(2)
	j := b.AddNode(1)
	b.AddEdge(x, j, 10)
	b.AddEdge(y, j, 1)
	g := b.MustBuild()
	s, err := DSC(g)
	if err != nil {
		t.Fatal(err)
	}
	// Unmerged start would be max(4+10, 2+1) = 14; joining x's cluster
	// gives max(4, 2+1) = 4... j must land with x.
	if s.ProcOf(j) != s.ProcOf(x) {
		t.Errorf("DSC did not merge join into heavy parent's cluster:\n%s", s)
	}
	if s.StartOf(j) != 4 {
		t.Errorf("join starts at %d, want 4", s.StartOf(j))
	}
}

// TestUNCBoundedByWork: a loose but universal sanity bound — no UNC
// schedule can exceed the total computation plus total communication of
// the graph (LC legitimately exceeds the serial computation length on
// communication-heavy graphs because it never merges parallel branches).
func TestUNCBoundedByWork(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for i := 0; i < 6; i++ {
		g := randomGraph(rng, 10+rng.Intn(25), 200)
		bound := g.TotalComputation() + g.TotalCommunication()
		for _, tc := range allAlgorithms() {
			s, err := tc.run(g)
			if err != nil {
				t.Fatal(err)
			}
			if s.Length() > bound {
				t.Errorf("%s: length %d exceeds comp+comm bound %d", tc.name, s.Length(), bound)
			}
		}
	}
}

// TestDCPCompetitiveWithBNP: sanity comparison across classes — with
// unlimited processors DCP should not lose badly to HLFET given the
// same graphs (the paper compares UNC and BNP on equal footing in
// Table 1).
func TestDCPCompetitiveWithBNP(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var dcpTotal, hlfetTotal int64
	for i := 0; i < 10; i++ {
		g := randomGraph(rng, 20, 60)
		d, err := DCP(g)
		if err != nil {
			t.Fatal(err)
		}
		h, err := bnp.HLFET(g, g.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		dcpTotal += d.Length()
		hlfetTotal += h.Length()
	}
	if float64(dcpTotal) > 1.1*float64(hlfetTotal) {
		t.Errorf("DCP total %d much worse than HLFET total %d", dcpTotal, hlfetTotal)
	}
}

// TestScheduleHetRejectsNonFiniteSpeeds: every speed factor ScheduleHet
// accepts must be one the schedules it builds accept too, so a zero,
// negative, NaN or infinite factor is an error, never a panic.
func TestScheduleHetRejectsNonFiniteSpeeds(t *testing.T) {
	g, err := gen.Generate("rgnos", 1, gen.Params{"v": "20"})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, -2} {
		speeds := make([]float64, g.NumNodes())
		for i := range speeds {
			speeds[i] = 1
		}
		speeds[3] = bad
		for name := range Algorithms() {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s with speed %g panicked: %v", name, bad, r)
					}
				}()
				if _, err := ScheduleHet(name, g, speeds); err == nil {
					t.Errorf("%s accepted speed factor %g", name, bad)
				}
			}()
		}
	}
}
