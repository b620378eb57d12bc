package sim

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/sched"
)

// Compile translates a complete clique-model schedule (BNP and UNC
// classes) into an executable Plan. Jobs are the tasks; each processor
// queue holds its tasks in the static start order, and every precedence
// edge becomes an arc carrying the edge's communication cost, a
// perturbable lag paid only when the endpoints run on different
// processors. The plan keeps the graph and the schedule's speed vector
// so fault-injected runs can re-place and replicate tasks.
func Compile(s *sched.Schedule) (*Plan, error) {
	if !s.Complete() {
		return nil, fmt.Errorf("sim: cannot compile a partial schedule (%d of %d tasks placed)",
			s.Placed(), s.Graph().NumNodes())
	}
	g := s.Graph()
	n := g.NumNodes()
	b := newPlanBuilder(n, s.NumProcs(), s.Makespan())
	addTasks(b, g, &s.Tasks)
	for v := 0; v < n; v++ {
		node := dag.NodeID(v)
		for _, a := range g.Succs(node) {
			b.addArc(int32(node), int32(a.To), a.Weight)
		}
	}
	plan := b.finalize()
	plan.g = g
	if sp := s.Speeds(); sp != nil {
		plan.speeds = append([]float64(nil), sp...)
	}
	return plan, nil
}

// addTasks adds one job per task, on its processor, and queues every
// processor's tasks in the static start order. Clique and APN
// schedules share the task core it reads.
func addTasks(b *planBuilder, g *dag.Graph, s *sched.Tasks) {
	for v := 0; v < g.NumNodes(); v++ {
		node := dag.NodeID(v)
		// The base duration is read off the schedule, not the graph, so
		// a heterogeneous schedule (per-processor speeds) replays the
		// execution times it actually committed; Options.Speed is a
		// further runtime perturbation on top of these.
		b.addJob(planJob{
			base:    s.FinishOf(node) - s.StartOf(node),
			planned: s.StartOf(node),
			ent:     taskEnt(node),
		}, int32(s.ProcOf(node)))
	}
	for p := 0; p < s.NumProcs(); p++ {
		for _, sl := range s.Slots(p) {
			b.queues[p] = append(b.queues[p], int32(sl.Node))
		}
	}
}

// Simulate compiles and executes a complete clique-model schedule once
// under the given options (trial 0). For repeated execution compile
// once with Compile and call Plan.Run or MonteCarlo.
func Simulate(s *sched.Schedule, opts Options) (Result, error) {
	plan, err := Compile(s)
	if err != nil {
		return Result{}, err
	}
	mk, err := plan.Run(opts, 0)
	if err != nil {
		return Result{}, err
	}
	return Result{Static: plan.static, Makespan: mk, Ratio: ratio(mk, plan.static)}, nil
}
