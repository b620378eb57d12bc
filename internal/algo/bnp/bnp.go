// Package bnp implements the six BNP (bounded number of processors)
// scheduling algorithms benchmarked by Kwok & Ahmad (IPPS 1998): HLFET,
// ISH, MCP, ETF, DLS, and LAST. All assume a fully connected,
// contention-free set of homogeneous processors (the clique model of
// internal/sched).
//
// Every scheduler has the signature
//
//	func(g *dag.Graph, numProcs int) (*sched.Schedule, error)
//
// and returns a complete, validated-by-construction schedule. The
// schedulers are deterministic: all ties break toward smaller node IDs
// and lower processor indices.
//
// HLFET, MCP, ETF and DLS are points of the component space of
// internal/algo/param, and their entry points here forward to those
// combos; ISH and LAST are not, and keep their own loops.
package bnp

import (
	"fmt"
	"sync"

	"repro/internal/algo/param"
	"repro/internal/dag"
	"repro/internal/sched"
)

// Scheduler is the common signature of all BNP algorithms.
type Scheduler func(g *dag.Graph, numProcs int) (*sched.Schedule, error)

// Algorithms returns the six BNP algorithms by name.
func Algorithms() map[string]Scheduler {
	out := make(map[string]Scheduler, len(algorithms))
	for name := range algorithms {
		out[name] = func(g *dag.Graph, numProcs int) (*sched.Schedule, error) {
			return ScheduleHet(name, g, numProcs, nil)
		}
	}
	return out
}

// HLFET is the Highest Level First with Estimated Times algorithm of
// Adam, Chandy and Dickson (1974): the ready node with the highest
// static level goes to the processor that allows its earliest start,
// without insertion. It is the param combo sl/est/ni/st.
func HLFET(g *dag.Graph, numProcs int) (*sched.Schedule, error) {
	return ScheduleHet("HLFET", g, numProcs, nil)
}

// MCP is the Modified Critical Path algorithm of Wu and Gajski (1990):
// nodes in ascending lexicographic order of their ALAP lists (own ALAP
// time, then every descendant's), each placed at its earliest start
// with insertion. The paper finds it the best BNP algorithm overall and
// the fastest (section 7). It is the param combo alap/est/ins/st.
func MCP(g *dag.Graph, numProcs int) (*sched.Schedule, error) {
	return ScheduleHet("MCP", g, numProcs, nil)
}

// ETF is the Earliest Time First algorithm of Hwang, Chow, Anger and
// Lee (1989): each step places the (ready node, processor) pair with
// the smallest earliest start, ties toward the higher static level,
// then the smaller node ID; no insertion. It is the param combo
// sl/est/ni/dy.
func ETF(g *dag.Graph, numProcs int) (*sched.Schedule, error) {
	return ScheduleHet("ETF", g, numProcs, nil)
}

// DLS is the Dynamic Level Scheduling algorithm of Sih and Lee (1993)
// in its BNP form (the APN form lives in internal/algo/apn): each step
// places the pair with the largest dynamic level SL(n) − EST(n, p),
// ties toward the smaller node ID; no insertion. It is the param combo
// dl/est/ni/dy.
func DLS(g *dag.Graph, numProcs int) (*sched.Schedule, error) {
	return ScheduleHet("DLS", g, numProcs, nil)
}

// ScheduleHet runs the named BNP algorithm on numProcs processors with
// the given per-processor speed vector (nil for the homogeneous model,
// where the result is byte-identical to the plain entry point). The
// algorithms' priority attributes stay weight-based — only placement
// queries and execution times are speed-aware; the component schedulers
// of internal/algo/param add heterogeneity-aware selection rules.
func ScheduleHet(name string, g *dag.Graph, numProcs int, speeds []float64) (*sched.Schedule, error) {
	run, ok := algorithms[name]
	if !ok {
		return nil, fmt.Errorf("bnp: unknown algorithm %q", name)
	}
	return run(g, numProcs, speeds)
}

// algorithms binds every BNP name to its speed-aware scheduler: the
// classic combos of internal/algo/param (HLFET, MCP, ETF, DLS) and the
// ISH and LAST loops, which are not points of the component space.
var algorithms = func() map[string]func(*dag.Graph, int, []float64) (*sched.Schedule, error) {
	m := map[string]func(*dag.Graph, int, []float64) (*sched.Schedule, error){
		"ISH":  bespoke(runISH),
		"LAST": bespoke(runLAST),
	}
	for _, reg := range param.Named() {
		m[reg.Name] = reg.Combo.Schedule
	}
	return m
}()

// bespoke wraps a loop that runs on a prepared schedule with the
// graph's static levels.
func bespoke(run func(g *dag.Graph, s *sched.Schedule, sl []int64)) func(*dag.Graph, int, []float64) (*sched.Schedule, error) {
	return func(g *dag.Graph, numProcs int, speeds []float64) (*sched.Schedule, error) {
		if g == nil {
			return nil, fmt.Errorf("bnp: nil graph")
		}
		if numProcs < 1 {
			return nil, fmt.Errorf("bnp: need at least one processor, got %d", numProcs)
		}
		s := sched.Acquire(g, numProcs)
		if speeds != nil {
			if err := s.SetSpeeds(speeds); err != nil {
				s.Release()
				return nil, err
			}
		}
		lv := levelsPool.Get().(*dag.Levels)
		defer levelsPool.Put(lv)
		lv.Compute(g)
		run(g, s, lv.Static)
		return s, nil
	}
}

// levelsPool recycles the level arrays of the bespoke loops.
var levelsPool = sync.Pool{New: func() any { return new(dag.Levels) }}
