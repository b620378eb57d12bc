package sim

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/dag"
	"repro/internal/pq"
	"repro/internal/sched"
)

// execTime returns the execution time of task v on processor q of a
// clique plan, exactly as sched.Schedule.ExecTime computes it, so it
// equals the committed slot duration on the static processor.
func (p *Plan) execTime(v int32, q int32) int64 {
	w := p.g.Weight(dag.NodeID(v))
	if p.speeds == nil {
		return w
	}
	return int64(math.Ceil(float64(w) / p.speeds[q]))
}

// bLevels returns the static b-levels of a clique plan's graph.
func (p *Plan) bLevels() []int64 {
	p.blOnce.Do(func() { p.blevel = dag.BLevels(p.g) })
	return p.blevel
}

// race settles the first-finisher race of task v, won by copy c at
// time t: the sibling copy is cancelled unless it is already running,
// in which case it finishes and frees its processor.
func (rt *runtime) race(c, v int32, t int64) {
	s := rt.replica[v]
	if c == s {
		s = v
	}
	if s < 0 || rt.dead[s] {
		return
	}
	q := rt.res[s]
	if rt.running[q] == s {
		if rt.start[s] <= t {
			return
		}
		rt.epoch[s]++
		rt.running[q] = -1
		rt.pending--
	}
	rt.dead[s] = true
	rt.tryRelease(q)
}

// addReplicas adds the replicate recovery's copies: the k tasks with
// the highest static b-level get one replica each on the processor
// (distinct from the primary's) that can finish it earliest against the
// static timetable, appended to that processor's queue in the spare
// capacity after its planned work.
func (rt *runtime) addReplicas(k int) {
	p := rt.plan
	np, n := p.numProcs, p.tasks
	if np < 2 {
		return
	}
	k = min(k, n)
	bl := p.bLevels()
	rt.order = resize(rt.order, n)
	for v := range rt.order {
		rt.order[v] = int32(v)
	}
	slices.SortFunc(rt.order, func(a, b int32) int {
		if c := cmp.Compare(bl[b], bl[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	rt.replicaBuf = resize(rt.replicaBuf, n)
	rt.replica = rt.replicaBuf
	for v := range rt.replica {
		rt.replica[v] = -1
	}
	staticFin := func(v int32) int64 { return p.jobs[v].planned + p.jobs[v].base }
	rt.lastFin = resize(rt.lastFin, np)
	lastFin := rt.lastFin
	clear(lastFin)
	for v := int32(0); v < int32(n); v++ {
		lastFin[p.res[v]] = max(lastFin[p.res[v]], staticFin(v))
	}
	for _, v := range rt.order[:k] {
		best := int32(-1)
		var bestStart, bestFin int64
		for q := int32(0); q < int32(np); q++ {
			if q == p.res[v] {
				continue
			}
			var drt int64
			for _, pr := range p.g.Preds(dag.NodeID(v)) {
				f := staticFin(int32(pr.To))
				if p.res[pr.To] != q {
					f += pr.Weight
				}
				drt = max(drt, f)
			}
			start := max(drt, lastFin[q])
			if fin := start + p.execTime(v, q); best < 0 || fin < bestFin {
				best, bestStart, bestFin = q, start, fin
			}
		}
		c := int32(len(rt.res))
		if rt.eager {
			bestStart = 0
		}
		rt.ready = append(rt.ready, bestStart)
		rt.start = append(rt.start, 0)
		rt.epoch = append(rt.epoch, 0)
		rt.dead = append(rt.dead, false)
		rt.res = append(rt.res, best)
		rt.copyTask = append(rt.copyTask, v)
		rt.replica[v] = c
		rt.queue[best] = append(rt.queue[best], c)
		rt.qOwn[best] = rt.queue[best]
		lastFin[best] = bestFin
	}
	rt.resOwn = rt.res
	rt.fin = resize(rt.fin, len(rt.res))
}

// resubmit is the repair pass of the resubmit recovery: it rebuilds a
// schedule for the unfinished suffix on the processors still in
// service and swaps the runtime's queues over to it. Finished tasks are
// pinned at their realized intervals and running tasks at their
// committed finish times; everything else is list-scheduled by
// descending static b-level with non-insertion best-EST queries under
// the availability mask (down processors become available at their
// scheduled repair; dead ones never).
func (rt *runtime) resubmit() {
	tc := rt.now
	p := rt.plan
	g, n, np := p.g, p.tasks, p.numProcs
	// Released copies that have not started go back into the pool: the
	// repair pass may move them somewhere better.
	for q := 0; q < np; q++ {
		if c := rt.running[q]; c >= 0 && rt.start[c] > tc {
			rt.epoch[c]++
			rt.running[q] = -1
			rt.pending--
		}
	}
	s := sched.Acquire(g, np)
	defer s.Release()
	if p.speeds != nil {
		if err := s.SetSpeeds(p.speeds); err != nil {
			panic(err)
		}
	}
	avail := make([]int64, np)
	for q, pf := range rt.procs {
		avail[q] = tc
		if pf.downAt >= 0 {
			avail[q] = pf.repairAt
		}
	}
	if err := s.SetAvailableFrom(avail); err != nil {
		panic(err)
	}
	running := make([]bool, n)
	for v := 0; v < n; v++ {
		if rt.done[v] {
			if err := s.PlaceFixed(dag.NodeID(v), int(rt.res[v]), rt.start[v], rt.fin[v]); err != nil {
				panic(err)
			}
		}
	}
	for v := int32(0); v < int32(n); v++ {
		if rt.running[rt.res[v]] == v && !rt.done[v] {
			running[v] = true
			if err := s.PlaceFixed(dag.NodeID(v), int(rt.res[v]), rt.start[v], rt.fin[v]); err != nil {
				panic(err)
			}
		}
	}
	// List-schedule the rest: a ready heap keyed (b-level desc, id asc)
	// over the tasks whose predecessors are all placed — b-level order
	// alone is not guaranteed topological on zero-weight nodes, the
	// ready filter is.
	bl := p.bLevels()
	rest := 0
	remPreds := make([]int32, n)
	ready := pq.New[int32](func(a, b int32) bool {
		if bl[a] != bl[b] {
			return bl[a] > bl[b]
		}
		return a < b
	})
	inRest := func(v int32) bool { return !rt.done[v] && !running[v] }
	for v := int32(0); v < int32(n); v++ {
		if !inRest(v) {
			continue
		}
		rest++
		for _, pr := range g.Preds(dag.NodeID(v)) {
			if inRest(int32(pr.To)) {
				remPreds[v]++
			}
		}
		if remPreds[v] == 0 {
			ready.Push(v)
		}
	}
	for ready.Len() > 0 {
		v := ready.Pop()
		q, est, ok := s.BestEST(dag.NodeID(v), false)
		if !ok || q < 0 {
			// No processor will ever be available again; the remaining
			// tasks cannot be placed and the run is lost.
			rt.aborted = true
			return
		}
		s.MustPlace(dag.NodeID(v), q, est)
		rest--
		for _, a := range g.Succs(dag.NodeID(v)) {
			w := int32(a.To)
			if !inRest(w) {
				continue
			}
			if remPreds[w]--; remPreds[w] == 0 {
				ready.Push(w)
			}
		}
	}
	if rest != 0 {
		panic("sim: repair pass left tasks unplaced")
	}
	// Swap the runtime over to the repaired schedule: fresh queues from
	// the repaired slot order, floors from the repaired starts, ready
	// times refolded from the arrivals already realized.
	for q := 0; q < np; q++ {
		queue := rt.qOwn[q][:0]
		for _, sl := range s.Slots(q) {
			if inRest(int32(sl.Node)) {
				queue = append(queue, int32(sl.Node))
			}
		}
		rt.queue[q], rt.qOwn[q], rt.qpos[q] = queue, queue, 0
	}
	for v := int32(0); v < int32(n); v++ {
		if !inRest(v) {
			continue
		}
		node := dag.NodeID(v)
		q := int32(s.ProcOf(node))
		rt.res[v] = q
		floor := s.StartOf(node)
		if rt.eager {
			floor = 0
		}
		// A re-placement decided at tc cannot start before tc, even under
		// eager dispatch.
		ready := max(floor, tc)
		rt.dead[v] = false
		deps := int32(0)
		for _, pr := range g.Preds(node) {
			u := int32(pr.To)
			if !rt.done[u] {
				deps++
				continue
			}
			arr := rt.fin[u]
			if rt.res[u] != q && pr.Weight > 0 {
				// The refolded lag is drawn under entity (u, u), not the
				// edge's (u, v). The golden replay digests pin this draw,
				// so keying it by the edge is a deliberate output change.
				arr += rt.lag(pr.Weight, u, u)
			}
			ready = max(ready, arr)
		}
		rt.ready[v], rt.deps[v] = ready, deps
	}
	for q := int32(0); q < int32(np); q++ {
		rt.tryRelease(q)
	}
}
