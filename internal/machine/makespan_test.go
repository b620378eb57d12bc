package machine

import (
	"testing"

	"repro/internal/dag"
)

// TestMakespanCacheAPN checks the cached makespan against a full
// timeline scan after every placement.
func TestMakespanCacheAPN(t *testing.T) {
	b := dag.NewBuilder()
	a := b.AddNode(3)
	c := b.AddNode(4)
	d := b.AddNode(5)
	b.AddEdge(a, d, 2)
	g := b.MustBuild()
	s := NewSchedule(g, Chain(3))
	scan := func() int64 {
		var max int64
		for p := 0; p < s.NumProcs(); p++ {
			if slots := s.Slots(p); len(slots) > 0 && slots[len(slots)-1].Finish > max {
				max = slots[len(slots)-1].Finish
			}
		}
		return max
	}
	if s.Makespan() != 0 {
		t.Fatalf("empty Makespan = %d", s.Makespan())
	}
	s.MustPlace(a, 0, 0)
	s.MustPlace(c, 1, 0)
	if got, want := s.Makespan(), scan(); got != want {
		t.Fatalf("Makespan %d, scan says %d", got, want)
	}
	est, ok := s.ESTOn(d, 2, false)
	if !ok {
		t.Fatal("EST for d failed")
	}
	s.MustPlace(d, 2, est)
	if got, want := s.Makespan(), scan(); got != want || s.Length() != want {
		t.Fatalf("Makespan %d / Length %d, scan says %d", got, s.Length(), want)
	}
}

// TestMakespanMethodValueOnNilSchedule: code that holds either a
// clique or a network schedule may take ms.Makespan as a method value
// while ms is nil and call it only when ms is set. A method promoted
// from the embedded task core would dereference ms already there.
func TestMakespanMethodValueOnNilSchedule(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("method value on a nil *Schedule panicked: %v", r)
		}
	}()
	var ms *Schedule
	makespan := ms.Makespan
	_ = makespan
}
