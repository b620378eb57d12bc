package optimal

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dag"
)

// The RGBOS optima are solved as parallel cells, each calling Schedule
// on its own graph from its own goroutine. These tests run Schedule
// concurrently the same way and check that the calls stay independent.

// scheduleConcurrently runs Schedule(g, numProcs, opts) from workers
// goroutines at once and returns every result and error in call order.
func scheduleConcurrently(g *dag.Graph, numProcs int, opts Options, workers int) ([]*Result, []error) {
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Schedule(g, numProcs, opts)
		}(i)
	}
	wg.Wait()
	return results, errs
}

func TestParallelErrors(t *testing.T) {
	_, errs := scheduleConcurrently(nil, 2, Options{}, 4)
	for i, err := range errs {
		if err == nil {
			t.Errorf("call %d accepted nil graph", i)
		}
	}
}

func TestParallelUpperBoundInfeasible(t *testing.T) {
	// Same setup as the sequential upper-bound test: optimum 4, bound 3.
	g := newFourTaskBuilder()
	results, errs := scheduleConcurrently(g, 2, Options{UpperBound: 3}, 4)
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].Schedule != nil {
			t.Errorf("call %d found schedule of length %d under infeasible bound", i, results[i].Length)
		}
	}
}

func TestParallelDeterministicValue(t *testing.T) {
	// Concurrent searches on one shared graph must each close on the
	// same optimal value as a search run alone.
	rng := rand.New(rand.NewSource(41))
	g := randomGraph(rng, 9, 60)
	seq, err := Schedule(g, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	results, errs := scheduleConcurrently(g, 3, Options{}, 3)
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !res.Closed {
			t.Errorf("call %d did not close", i)
		}
		if res.Length != seq.Length {
			t.Errorf("call %d: optimal value %d, alone %d", i, res.Length, seq.Length)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
}

// newFourTaskBuilder builds 4 independent weight-2 tasks (optimum 4 on
// two processors).
func newFourTaskBuilder() *dag.Graph {
	b := dag.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode(2)
	}
	return b.MustBuild()
}
