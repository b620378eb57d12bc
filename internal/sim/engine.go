package sim

import (
	"sync"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/pq"
)

// Plan is a compiled schedule ready to be executed by the discrete-
// event runtime any number of times. Job IDs below tasks are task
// executions (one per graph node, ID == NodeID); the rest are per-hop
// message transfers of an APN schedule. Every job runs on one resource:
// resources below numProcs are processors, the rest are the directed
// link channels of an APN schedule. A Plan holds
//
//   - precedence arcs in compressed sparse row form. A clique arc
//     carries its edge's communication cost, paid as a lag only when
//     the two tasks currently sit on different processors; APN arcs
//     carry none, because their messages are hop jobs;
//   - one static FIFO queue per resource: each processor runs its tasks
//     in the static start order and each channel serves its transfers
//     in the static reservation order.
//
// A Plan is immutable after compilation (its b-levels are computed
// once, on first use) and safe for concurrent Run and RunFaults calls
// from multiple goroutines.
type Plan struct {
	jobs     []planJob
	res      []int32 // static resource per job
	arcs     []planArc
	arcOff   []int32
	indeg    []int32
	queue    []int32 // static FIFO order of each resource, CSR over qOff
	qOff     []int32
	channels [][2]int // endpoints of channel resource numProcs+c
	tasks    int      // jobs[0:tasks] are task executions
	numProcs int
	static   int64 // the schedule's planned makespan

	// Recovery inputs of a clique plan (nil for APN plans): the graph
	// and speed vector re-placed and replicated tasks are timed on, and
	// the static b-levels that order them, computed on first use.
	g      *dag.Graph
	speeds []float64
	blOnce sync.Once
	blevel []int64
}

// planJob is one unit of simulated work.
type planJob struct {
	base    int64  // unperturbed duration (task weight or message cost)
	planned int64  // static start time (the timetable release floor)
	ent     uint64 // perturbation entity key
}

// planArc releases job to when the owning job finishes, after the
// communication lag base when the two tasks run on different
// processors. The lag's perturbation entity is the edge's, commEnt of
// the owning job and to.
type planArc struct {
	to   int32
	base int64 // unperturbed lag, 0 for APN arcs
}

// Static returns the planned (unperturbed) makespan of the compiled
// schedule.
func (p *Plan) Static() int64 { return p.static }

// Jobs returns the number of simulated jobs: one per task, plus one
// per committed link transfer for APN schedules.
func (p *Plan) Jobs() int { return len(p.jobs) }

// Run executes the plan once under the given options and trial number
// and returns the realized makespan. Runs are deterministic in
// (Options, trial) and independent of each other; a Plan may be Run
// concurrently.
func (p *Plan) Run(opts Options, trial int) (int64, error) {
	if err := opts.validate(p.numProcs); err != nil {
		return 0, err
	}
	return p.run(&opts, trialSeed(opts.Seed, trial)), nil
}

// run is the validated core of Run: one fault-free execution, recorded
// in the sim.* counters.
func (p *Plan) run(opts *Options, trial uint64) int64 {
	rt := p.begin(opts, trial)
	rt.loop()
	if obs.MetricsEnabled() {
		simRuns.Inc()
		simEvents.Add(int64(len(p.jobs)))
		simStalls.Add(rt.stalls)
	}
	mk := rt.makespan
	rt.end()
	return mk
}

// event is one entry on the simulation clock. The key orders events of
// one instant: completions before crashes before repairs, so a task
// finishing exactly when its processor dies survives and work never
// starts on a processor in the instant before its crash is processed;
// then by copy or processor ID, so the trace is fully ordered.
type event struct {
	t     int64
	key   uint32 // kind | id
	epoch int32  // completion validity stamp, see runtime.epoch
}

// Event kinds occupy the top two bits of the key. Copy IDs stay below
// 2^30: a plan that large would need tens of gigabytes of jobs.
const (
	evComplete uint32 = iota << 30
	evCrash
	evRepair
	idMask = 1<<30 - 1
)

// runtime is the mutable state of one execution, pooled so steady-state
// fault-free trials allocate nothing. Copies are execution attempts:
// copy c < len(plan.jobs) is job c itself, later ones are the replicas
// the replicate recovery adds. The fault fields are live only when the
// run's fault model enables them.
type runtime struct {
	plan    *Plan
	perturb Perturbation
	speed   []float64
	trial   uint64
	eager   bool

	deps  []int32 // per job: unfinished precedence predecessors
	ready []int64 // per copy: release floor folded with realized arrivals
	start []int64 // per copy: realized start once released
	fin   []int64 // per copy: realized finish once released
	res   []int32 // per copy: resource; plan.res itself unless crashes are enabled

	queue   [][]int32 // per resource: FIFO of copies; the plan's queues unless crashes are enabled
	qpos    []int32   // per resource: next queue entry to release
	running []int32   // per resource: released copy occupying it, -1 if none
	freeAt  []int64   // per resource: last realized completion
	busy    []int64   // per processor: execution time, killed runs included

	heap      *pq.Heap[event]
	pending   int // completion events in flight
	remaining int // tasks not yet finished
	makespan  int64
	horizon   int64 // time of the last processed event
	now       int64
	stalls    int64 // jobs started after their planned start
	events    int64 // events popped

	faultState
}

var runtimePool = sync.Pool{New: func() any {
	return &runtime{heap: pq.New[event](func(a, b event) bool {
		return a.t < b.t || (a.t == b.t && a.key < b.key)
	})}
}}

// begin takes a pooled runtime and prepares one fault-free execution
// of p; armFaults extends it with a fault model.
func (p *Plan) begin(opts *Options, trial uint64) *runtime {
	rt := runtimePool.Get().(*runtime)
	rt.plan, rt.perturb, rt.speed, rt.trial = p, opts.Perturb, opts.Speed, trial
	rt.eager = opts.Policy == PolicyEager
	n := len(p.jobs)
	rt.deps = resize(rt.deps, n)
	copy(rt.deps, p.indeg)
	rt.ready = resize(rt.ready, n)
	if rt.eager {
		clear(rt.ready)
	} else {
		for j := range rt.ready {
			rt.ready[j] = p.jobs[j].planned
		}
	}
	rt.start = resize(rt.start, n)
	rt.fin = resize(rt.fin, n)
	rt.res = p.res
	nr := len(p.qOff) - 1
	rt.queue = resize(rt.queue, nr)
	for r := range rt.queue {
		lo, hi := p.qOff[r], p.qOff[r+1]
		rt.queue[r] = p.queue[lo:hi:hi]
	}
	rt.qpos = resize(rt.qpos, nr)
	clear(rt.qpos)
	rt.running = resize(rt.running, nr)
	for r := range rt.running {
		rt.running[r] = -1
	}
	rt.freeAt = resize(rt.freeAt, nr)
	clear(rt.freeAt)
	rt.busy = resize(rt.busy, p.numProcs)
	clear(rt.busy)
	rt.heap.Reset()
	rt.pending, rt.remaining = 0, p.tasks
	rt.makespan, rt.horizon, rt.now, rt.stalls, rt.events = 0, 0, 0, 0, 0
	rt.faultState.reset()
	return rt
}

// end returns the runtime to the pool without pinning the plan.
func (rt *runtime) end() {
	rt.plan, rt.speed, rt.res = nil, nil, nil
	clear(rt.queue)
	runtimePool.Put(rt)
}

// loop is the event loop: it releases every runnable queue head, then
// pops events until every task has finished or nothing can progress —
// no completion in flight and no pending repair that could unblock a
// waiting task.
func (rt *runtime) loop() {
	for r := range rt.queue {
		rt.tryRelease(int32(r))
	}
	for !rt.aborted && rt.remaining > 0 {
		if rt.pending == 0 && !rt.repairCanUnblock() {
			break // lost tasks block all remaining work forever
		}
		ev := rt.heap.Pop()
		rt.events++
		rt.now = ev.t
		if ev.t > rt.horizon {
			rt.horizon = ev.t
		}
		id := int32(ev.key & idMask)
		switch ev.key &^ idMask {
		case evComplete:
			rt.complete(id, ev)
		case evCrash:
			rt.crash(id)
		default:
			rt.repair(id)
		}
	}
}

// task returns the job copy c executes.
func (rt *runtime) task(c int32) int32 {
	if int(c) < len(rt.plan.jobs) {
		return c
	}
	return rt.copyTask[int(c)-len(rt.plan.jobs)]
}

// tryRelease starts the next runnable copy of resource r, if any: the
// resource must be idle and in service, and the queue head (skipping
// dead copies and finished tasks) must have no unfinished predecessors.
func (rt *runtime) tryRelease(r int32) {
	if rt.running[r] >= 0 || rt.crashy && int(r) < rt.plan.numProcs && rt.procs[r].downAt >= 0 {
		return
	}
	q := rt.queue[r]
	for i := rt.qpos[r]; int(i) < len(q); i++ {
		c := q[i]
		v := rt.task(c)
		if rt.crashy && (rt.dead[c] || rt.done[v]) {
			rt.qpos[r] = i + 1
			continue
		}
		if rt.deps[v] > 0 {
			return
		}
		rt.qpos[r] = i + 1
		rt.release(c, v, r)
		return
	}
}

// release starts copy c of job v on resource r at the latest of its
// ready time, the resource's last completion and its last repair —
// pushed past link outages for a transfer — and schedules its
// completion after the (possibly perturbed) duration.
func (rt *runtime) release(c, v, r int32) {
	p := rt.plan
	jb := &p.jobs[v]
	dur := jb.base
	if r != p.res[v] {
		dur = p.execTime(v, r) // a replica or re-placed task
	}
	if rt.perturb.Dist != DistNone {
		dur = scaleDur(dur, rt.perturb.multiplier(rt.trial, jb.ent))
	}
	start := max(rt.ready[c], rt.freeAt[r])
	if int(r) < p.numProcs {
		if rt.speed != nil {
			dur = scaleDur(dur, rt.speed[r])
		}
		if rt.crashy {
			dur = rt.credit(v, dur)
			start = max(start, rt.procs[r].upAt)
		}
	} else if rt.outages {
		start = rt.pushPastOutages(int(r)-p.numProcs, start)
	}
	if start > jb.planned {
		rt.stalls++
	}
	rt.start[c], rt.fin[c] = start, start+dur
	rt.running[r] = c
	var epoch int32
	if rt.crashy {
		epoch = rt.epoch[c]
	}
	rt.heap.Push(event{t: start + dur, key: evComplete | uint32(c), epoch: epoch})
	rt.pending++
}

// lag returns the realized communication lag of weight base drawn
// under the entity of edge (u, v).
func (rt *runtime) lag(base int64, u, v int32) int64 {
	if rt.perturb.Dist == DistNone {
		return base
	}
	return scaleDur(base, rt.perturb.multiplier(rt.trial, commEnt(dag.NodeID(u), dag.NodeID(v))))
}

// complete processes the completion of copy c: it frees the resource,
// and for the first finisher of a job folds the realized data arrivals
// into every live copy of each successor, releasing those whose
// predecessors have all finished. With replicas it also cancels the
// sibling copy that has not started; a later finisher only frees its
// resource.
func (rt *runtime) complete(c int32, ev event) {
	if rt.crashy && rt.epoch[c] != ev.epoch {
		return // cancelled while in flight; pending was already adjusted
	}
	rt.pending--
	t := ev.t
	r := rt.res[c]
	rt.running[r] = -1
	rt.freeAt[r] = max(rt.freeAt[r], t)
	p := rt.plan
	if int(r) < p.numProcs {
		rt.busy[r] += t - rt.start[c]
	}
	v := rt.task(c)
	if rt.crashy {
		if rt.done[v] {
			rt.tryRelease(r)
			return
		}
		rt.done[v] = true
		if rt.replica != nil {
			rt.race(c, v, t)
		}
	}
	if int(v) < p.tasks {
		rt.remaining--
		rt.makespan = max(rt.makespan, t)
	}
	for i := p.arcOff[v]; i < p.arcOff[v+1]; i++ {
		a := &p.arcs[i]
		to := a.to
		if rt.crashy && rt.done[to] {
			rt.deps[to]--
			continue
		}
		for k := to; k >= 0; k = rt.nextCopy(k, to) {
			if rt.crashy && rt.dead[k] {
				continue
			}
			arr := t
			if a.base > 0 && rt.res[k] != r {
				arr += rt.lag(a.base, v, to)
			}
			rt.ready[k] = max(rt.ready[k], arr)
		}
		if rt.deps[to]--; rt.deps[to] == 0 {
			for k := to; k >= 0; k = rt.nextCopy(k, to) {
				if !rt.crashy || !rt.dead[k] {
					rt.tryRelease(rt.res[k])
				}
			}
		}
	}
	rt.tryRelease(r)
}

// nextCopy steps through the copies of job v: v itself, then its
// replica when it has one; -1 ends the walk.
func (rt *runtime) nextCopy(k, v int32) int32 {
	if k == v && rt.replica != nil {
		return rt.replica[v]
	}
	return -1
}

// resize returns a slice of length n, reusing the backing array when
// large enough. Contents are unspecified; callers overwrite them.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// planBuilder accumulates jobs, arcs and resource queues during
// compilation and finalizes the CSR layouts. Compilation happens once
// per schedule; the builder favors clarity over pooling.
type planBuilder struct {
	plan   Plan
	from   []int32   // arc sources, parallel to plan.arcs before finalize
	queues [][]int32 // per resource: jobs in static order
}

// newPlanBuilder starts a plan for a schedule of n tasks on numProcs
// processors with the given planned makespan.
func newPlanBuilder(n, numProcs int, static int64) *planBuilder {
	b := &planBuilder{queues: make([][]int32, numProcs)}
	b.plan.tasks, b.plan.numProcs, b.plan.static = n, numProcs, static
	b.plan.jobs = make([]planJob, 0, n)
	b.plan.res = make([]int32, 0, n)
	return b
}

// addJob appends a job on resource r and returns its ID.
func (b *planBuilder) addJob(j planJob, r int32) int32 {
	b.plan.jobs = append(b.plan.jobs, j)
	b.plan.res = append(b.plan.res, r)
	return int32(len(b.plan.jobs) - 1)
}

// addChannel adds a link channel resource and returns its index.
func (b *planBuilder) addChannel(from, to int) int32 {
	b.plan.channels = append(b.plan.channels, [2]int{from, to})
	b.queues = append(b.queues, nil)
	return int32(len(b.plan.channels) - 1)
}

// addArc records a precedence constraint from job u to job v with an
// optional communication lag.
func (b *planBuilder) addArc(u, v int32, base int64) {
	b.from = append(b.from, u)
	b.plan.arcs = append(b.plan.arcs, planArc{to: v, base: base})
}

// finalize sorts the arcs into CSR layout, computes in-degrees and
// flattens the resource queues.
func (b *planBuilder) finalize() *Plan {
	p := &b.plan
	n := len(p.jobs)
	p.arcOff = make([]int32, n+1)
	for _, u := range b.from {
		p.arcOff[u+1]++
	}
	for i := 1; i <= n; i++ {
		p.arcOff[i] += p.arcOff[i-1]
	}
	sorted := make([]planArc, len(p.arcs))
	next := make([]int32, n)
	for i, u := range b.from {
		sorted[p.arcOff[u]+next[u]] = p.arcs[i]
		next[u]++
	}
	p.arcs = sorted
	p.indeg = make([]int32, n)
	for _, a := range p.arcs {
		p.indeg[a.to]++
	}
	p.queue = make([]int32, 0, n)
	p.qOff = make([]int32, 1, len(b.queues)+1)
	for _, q := range b.queues {
		p.queue = append(p.queue, q...)
		p.qOff = append(p.qOff, int32(len(p.queue)))
	}
	return p
}
