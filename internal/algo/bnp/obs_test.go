package bnp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/sched"
)

// TestTraceCandidatesUseInsertionPolicy pins the decision record of an
// insertion-policy placement that appends: MCP places n3 after the last
// task of P0 while P1 has a hole [4,7) that fits it, so the P1
// candidate must carry the insertion EST MCP compared (4), not the
// append-only one (11).
func TestTraceCandidatesUseInsertionPolicy(t *testing.T) {
	b := dag.NewBuilder()
	for _, w := range []int64{4, 1, 3, 3, 4} {
		b.AddNode(w)
	}
	b.AddEdge(0, 4, 5)
	b.AddEdge(1, 2, 2)
	b.AddEdge(1, 3, 3)
	b.AddEdge(1, 4, 3)
	b.AddEdge(2, 4, 3)
	g := b.MustBuild()
	const n = dag.NodeID(3)

	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, obs.TraceJSONL)
	obs.SetTracer(tr)
	t.Cleanup(func() { obs.SetTracer(nil) })
	tr.BeginRun("MCP", "BNP", g.NumNodes(), 2)
	s, err := MCP(g, 2)
	tr.EndRun()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if s.ProcOf(n) != 0 || s.StartOf(n) != 4 {
		t.Fatalf("MCP placed n3 on P%d at %d, want appended on P0 at 4\n%s", s.ProcOf(n), s.StartOf(n), s)
	}

	// The state MCP saw: everything but n3 placed as in the result.
	prefix := sched.New(g, 2)
	for _, v := range []dag.NodeID{1, 2, 0, 4} {
		prefix.MustPlace(v, s.ProcOf(v), s.StartOf(v))
	}
	want, _ := prefix.ESTOn(n, 1, true)
	if appendEST, _ := prefix.ESTOn(n, 1, false); appendEST == want {
		t.Fatalf("P1 has no hole for n3: insertion and append ESTs are both %d", want)
	}

	var rec struct {
		Type      string
		Node      int
		Insertion bool
		Cands     []struct{ P, EST int64 }
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if rec.Type == "place" && rec.Node == int(n) {
			break
		}
		rec.Type = ""
	}
	if rec.Type != "place" || len(rec.Cands) != 2 {
		t.Fatalf("no place record with two candidates for n3 in trace:\n%s", buf.String())
	}
	if rec.Insertion {
		t.Errorf("n3 record says insertion, but it was appended")
	}
	if got := rec.Cands[1].EST; got != want {
		t.Errorf("recorded P1 EST for n3 = %d, want insertion EST %d", got, want)
	}
}
