package sim

import (
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/machine"
)

// CompileAPN translates a complete APN schedule into an executable
// Plan. Tasks become jobs exactly as in the clique model; in addition,
// every committed link reservation becomes a message-transfer job on
// its directed channel, whose duration is the (perturbable) edge cost.
// Lag-free arcs chain each message store-and-forward along its
// committed route — parent task to first hop, hop to hop, last hop to
// child task — and each channel queue holds its transfers in static
// reservation order, which is the per-link contention queue: a transfer
// cannot begin until the channel has finished every transfer planned
// before it. Co-located and zero-cost edges release the child directly.
func CompileAPN(s *machine.Schedule) (*Plan, error) {
	if !s.Complete() {
		return nil, fmt.Errorf("sim: cannot compile a partial APN schedule (%d of %d tasks placed)",
			s.Placed(), s.Graph().NumNodes())
	}
	g := s.Graph()
	n := g.NumNodes()
	np := s.NumProcs()
	b := newPlanBuilder(n, np, s.Makespan())
	addTasks(b, g, &s.Tasks)
	// Message-hop jobs, one per committed link reservation, chained
	// along the route. Channels are discovered in deterministic edge
	// order.
	type chanHop struct {
		job   int32
		start int64 // static reservation start, the queue order key
	}
	chanIndex := map[[2]int]int32{}
	var chanHops [][]chanHop
	for v := 0; v < n; v++ {
		child := dag.NodeID(v)
		for _, pr := range g.Preds(child) {
			parent := pr.To
			prev := int32(parent) // previous job in the message chain
			s.EachMessageHop(parent, child, func(h machine.LinkHop) {
				ci, ok := chanIndex[[2]int{h.From, h.To}]
				if !ok {
					ci = b.addChannel(h.From, h.To)
					chanIndex[[2]int{h.From, h.To}] = ci
					chanHops = append(chanHops, nil)
				}
				job := b.addJob(planJob{
					base:    h.Finish - h.Start,
					planned: h.Start,
					ent:     commEnt(parent, child),
				}, int32(np)+ci)
				b.addArc(prev, job, 0)
				chanHops[ci] = append(chanHops[ci], chanHop{job: job, start: h.Start})
				prev = job
			})
			// The child waits for the last hop, or directly for the
			// parent when the edge needed no link time.
			b.addArc(prev, int32(child), 0)
		}
	}
	// Contention queues: each channel serves its transfers in static
	// start order. Static reservations on one channel never overlap and
	// have positive duration, so starts are distinct and the order is
	// total.
	for ci, hops := range chanHops {
		sort.Slice(hops, func(i, j int) bool { return hops[i].start < hops[j].start })
		for _, h := range hops {
			b.queues[np+ci] = append(b.queues[np+ci], h.job)
		}
	}
	return b.finalize(), nil
}

// SimulateAPN compiles and executes a complete APN schedule once under
// the given options (trial 0). For repeated execution compile once
// with CompileAPN and call Plan.Run or MonteCarlo.
func SimulateAPN(s *machine.Schedule, opts Options) (Result, error) {
	plan, err := CompileAPN(s)
	if err != nil {
		return Result{}, err
	}
	mk, err := plan.Run(opts, 0)
	if err != nil {
		return Result{}, err
	}
	return Result{Static: plan.static, Makespan: mk, Ratio: ratio(mk, plan.static)}, nil
}
