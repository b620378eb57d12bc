package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sched"
)

// Fault entities extend the counter-based randomness of rng.go to
// machine failures: every uptime, downtime, and link-outage duration is
// a pure hash of (seed, trial, entity), so failure traces are
// independent of event-processing order, identical for the same machine
// across algorithms and recovery policies (paired comparisons), and
// byte-reproducible at any worker count. The entFault kind occupies the
// remaining top-bit pattern next to entTask and entComm; bit 61
// separates processor-fault entities from link-outage entities, and the
// low bits carry the processor (or directed channel) plus the draw
// index along that entity's alternating up/down sequence.
const (
	entFault     uint64 = 3 << 62
	entFaultLink uint64 = 1 << 61
)

// procFaultEnt returns the entity key of the k-th fault draw of
// processor p: draws alternate uptime, downtime, uptime, ... along k.
func procFaultEnt(p, k int) uint64 {
	return entFault | uint64(uint32(p))<<32 | uint64(uint32(k))
}

// linkFaultEnt returns the entity key of the k-th outage draw of the
// directed channel u -> v: draws alternate up-window, outage-window,
// ... along k.
func linkFaultEnt(u, v, k int) uint64 {
	return entFault | entFaultLink | uint64(uint16(u))<<44 | uint64(uint16(v))<<28 | uint64(uint32(k))&0xfffffff
}

// expDuration draws a deterministic exponential duration with the given
// mean for one (trial, entity) pair, rounded to the nearest tick with a
// one-tick minimum. It is the counter-based analogue of sampling a
// time-to-failure or repair time: the draw depends only on the hash
// inputs, never on simulation state.
func expDuration(mean int64, trial, ent uint64) int64 {
	h := splitmix64(trial ^ splitmix64(ent))
	d := int64(math.Round(-float64(mean) * math.Log(u01pos(h))))
	if d < 1 {
		return 1
	}
	return d
}

// FaultModel configures deterministic fail-stop processor crashes and
// transient link outages for a simulated execution. The zero value
// injects no faults.
type FaultModel struct {
	// MTBF is the mean uptime before a processor crashes (exponential
	// time-to-failure, drawn per processor); 0 disables crashes. A crash
	// kills the task running on the processor and all unstarted work
	// placed there.
	MTBF int64
	// MeanRepair is the mean downtime before a crashed processor
	// returns to service (exponential, drawn per crash); 0 means crashed
	// processors never return.
	MeanRepair int64
	// LinkMTBF is the mean up time between transient outages of a
	// directed link channel (APN schedules only); 0 disables outages.
	// During an outage the channel's FIFO queue stalls: no new transfer
	// may start until the outage window closes (in-flight transfers
	// complete, store-and-forward).
	LinkMTBF int64
	// MeanOutage is the mean length of one link-outage window; it must
	// be positive when LinkMTBF is.
	MeanOutage int64
}

// Enabled reports whether the model injects any faults.
func (f *FaultModel) Enabled() bool { return f.MTBF > 0 || f.LinkMTBF > 0 }

// Validate checks the model's parameters.
func (f *FaultModel) Validate() error {
	for _, v := range [...]int64{f.MTBF, f.MeanRepair, f.LinkMTBF, f.MeanOutage} {
		if v < 0 {
			return fmt.Errorf("sim: negative fault-model duration %d", v)
		}
	}
	if f.LinkMTBF > 0 && f.MeanOutage == 0 {
		return fmt.Errorf("sim: link outages need a positive MeanOutage")
	}
	return nil
}

// Recovery selects how a fault-injected run of a clique plan reacts to
// processor crashes. The zero value does not recover: work lost to a
// crash stays lost. Every hook runs only on a crash, so with crashes
// disabled every Recovery replays exactly the fault-free run.
type Recovery struct {
	// Resubmit re-places the unfinished suffix of the execution on the
	// processors still in service after every crash: a list-scheduling
	// repair pass by descending static b-level over the incremental EST
	// cache of internal/sched, restricted to the processors' repair
	// times.
	Resubmit bool
	// Checkpoint, when positive, is a checkpoint period: a killed task's
	// progress up to its last completed period boundary is credited
	// against its re-execution.
	Checkpoint int64
	// Replicas, when positive, duplicates that many tasks of highest
	// static b-level on a second processor in the spare capacity of the
	// static schedule; the first finisher wins and the sibling that has
	// not started is cancelled. It does not combine with Resubmit.
	Replicas int
}

// FaultResult reports one fault-injected execution of a plan.
type FaultResult struct {
	// Static is the makespan of the schedule as planned.
	Static int64
	// Finished reports whether every task completed. A run with lost
	// tasks (or an aborted repair pass with no surviving processors)
	// does not finish.
	Finished bool
	// Makespan is the realized makespan when Finished; 0 otherwise.
	Makespan int64
	// Ratio is Makespan/Static for a finished run (1 when Static is 0)
	// and +Inf otherwise — an unfinished schedule misses every deadline.
	Ratio float64
	// Horizon is the time of the last processed event: the span the
	// utilization accounting covers. Horizon >= Makespan on a finished
	// run.
	Horizon int64
	// Crashes counts processor crash events within the horizon.
	Crashes int
	// Lost counts the tasks that never finished.
	Lost int
	// Busy, Idle, and Down split each processor's share of the horizon:
	// Busy[p] + Idle[p] + Down[p] == Horizon for every p. Busy covers
	// task execution (including killed partial runs and wasted replica
	// runs); Down covers crash-to-repair intervals clamped to the
	// horizon.
	Busy, Idle, Down []int64
}

// RunFaults executes the plan once under a fault model and a crash
// recovery and stores the outcome in res, reusing res's utilization
// slices when they already hold one entry per processor. It returns the
// number of events the run processed. Runs are deterministic in
// (opts, faults, rec, trial); with the zero fault model the realized
// makespan is exactly Run's. Recovery applies to clique plans only.
func (p *Plan) RunFaults(opts Options, faults FaultModel, rec Recovery, trial int, res *FaultResult) (int64, error) {
	if err := opts.validate(p.numProcs); err != nil {
		return 0, err
	}
	if err := faults.Validate(); err != nil {
		return 0, err
	}
	if p.g == nil && rec != (Recovery{}) {
		return 0, errors.New("sim: recovery is not supported on APN plans")
	}
	if rec.Resubmit && rec.Replicas > 0 {
		return 0, errors.New("sim: replicas do not combine with resubmit")
	}
	rt := p.begin(&opts, trialSeed(opts.Seed, trial))
	rt.armFaults(faults, rec)
	rt.loop()
	rt.result(res)
	events := rt.events
	rt.end()
	return events, nil
}

// faultState is the runtime state a fault model adds. crashy gates
// every crash, kill and recovery path; outages gates the channel outage
// windows; replica is non-nil only once replicas were added.
type faultState struct {
	faults  FaultModel
	rec     Recovery
	crashy  bool // MTBF > 0
	outages bool // LinkMTBF > 0
	aborted bool // a repair pass found no processor to place on
	crashes int

	epoch []int32 // per copy: bumped when an in-flight completion is cancelled
	dead  []bool  // per copy: killed or cancelled
	done  []bool  // per job: finished
	saved []int64 // per task: checkpoint credit

	procs []procFault // per processor
	gens  []outGen    // per channel

	replica  []int32 // per task: replica copy or -1; nil without replicas
	copyTask []int32 // task of copy len(plan.jobs)+i

	// Buffers the pooled runtime reuses across runs. Under crashes res
	// and queue point into resOwn and qOwn, which recovery rewrites.
	replicaBuf []int32
	order      []int32
	lastFin    []int64
	resOwn     []int32
	qOwn       [][]int32
}

// procFault is the crash state of one processor.
type procFault struct {
	downAt   int64 // crash time while down, -1 while up
	repairAt int64 // scheduled repair while down, sched.Never otherwise
	upAt     int64 // last repair
	down     int64 // accounted downtime
	k        int   // next fault draw index
}

// outGen lazily materializes the outage-window sequence of one directed
// channel: alternating exponential up and outage draws along the draw
// counter, generated strictly in time order so the realized windows are
// independent of the order transfers query them.
type outGen struct {
	wins [][2]int64
	k    int   // next draw index
	t    int64 // end of the last generated window
}

// reset clears the per-run fault flags of a pooled runtime.
func (f *faultState) reset() {
	f.crashy, f.outages, f.aborted, f.crashes = false, false, false, 0
	f.replica, f.copyTask = nil, f.copyTask[:0]
}

// armFaults extends a prepared runtime with a fault model: per-
// processor state, channel outage generators, the replicas of the
// replicate recovery, and the first crash of every processor.
func (rt *runtime) armFaults(fm FaultModel, rec Recovery) {
	p := rt.plan
	rt.faults, rt.rec = fm, rec
	rt.crashy, rt.outages = fm.MTBF > 0, fm.LinkMTBF > 0
	if rt.outages {
		rt.gens = resize(rt.gens, len(p.channels))
		for i := range rt.gens {
			rt.gens[i] = outGen{wins: rt.gens[i].wins[:0]}
		}
	}
	if !rt.crashy {
		return
	}
	n, np := len(p.jobs), p.numProcs
	rt.epoch = resize(rt.epoch, n)
	clear(rt.epoch)
	rt.dead = resize(rt.dead, n)
	clear(rt.dead)
	rt.done = resize(rt.done, n)
	clear(rt.done)
	if rec.Checkpoint > 0 {
		rt.saved = resize(rt.saved, p.tasks)
		clear(rt.saved)
	}
	rt.procs = resize(rt.procs, np)
	for q := range rt.procs {
		rt.procs[q] = procFault{downAt: -1, repairAt: sched.Never}
	}
	rt.resOwn = append(rt.resOwn[:0], p.res...)
	rt.res = rt.resOwn
	for len(rt.qOwn) < np {
		rt.qOwn = append(rt.qOwn, nil)
	}
	for q := 0; q < np; q++ {
		rt.qOwn[q] = append(rt.qOwn[q][:0], rt.queue[q]...)
		rt.queue[q] = rt.qOwn[q]
	}
	if rec.Replicas > 0 {
		rt.addReplicas(rec.Replicas)
	}
	for q := int32(0); q < int32(np); q++ {
		rt.heap.Push(event{t: rt.draw(fm.MTBF, q), key: evCrash | uint32(q)})
	}
}

// draw returns processor q's next exponential fault duration.
func (rt *runtime) draw(mean int64, q int32) int64 {
	pf := &rt.procs[q]
	pf.k++
	return expDuration(mean, rt.trial, procFaultEnt(int(q), pf.k-1))
}

// credit subtracts task v's checkpoint credit from an execution
// attempt's duration, leaving at least one tick.
func (rt *runtime) credit(v int32, dur int64) int64 {
	if rt.rec.Checkpoint > 0 && rt.saved[v] > 0 {
		return max(dur-rt.saved[v], 1)
	}
	return dur
}

// crash processes the fail-stop crash of processor q: downtime begins,
// a repair is scheduled when the model allows one, the copy occupying
// q and every unstarted copy queued there are killed, and the recovery
// reacts. Messages are unaffected: transfers run on the links.
func (rt *runtime) crash(q int32) {
	rt.crashes++
	tc := rt.now
	pf := &rt.procs[q]
	pf.downAt, pf.repairAt = tc, sched.Never
	if rt.faults.MeanRepair > 0 {
		pf.repairAt = tc + rt.draw(rt.faults.MeanRepair, q)
		rt.heap.Push(event{t: pf.repairAt, key: evRepair | uint32(q)})
	}
	if c := rt.running[q]; c >= 0 {
		if s := rt.start[c]; s <= tc {
			rt.busy[q] += tc - s
			if iv := rt.rec.Checkpoint; iv > 0 {
				// Progress up to the last completed checkpoint boundary
				// survives; elapsed < duration (the completion would have
				// fired first), so the credit never covers the whole task.
				rt.saved[rt.task(c)] += (tc - s) / iv * iv
			}
		}
		rt.epoch[c]++
		rt.pending--
		rt.dead[c] = true
		rt.running[q] = -1
	}
	for _, c := range rt.queue[q][rt.qpos[q]:] {
		if !rt.done[rt.task(c)] {
			rt.dead[c] = true
		}
	}
	if rt.rec.Resubmit {
		rt.resubmit()
	}
}

// repair returns processor q to service: downtime is accounted, the
// next crash is drawn, and queued work may start.
func (rt *runtime) repair(q int32) {
	tr := rt.now
	pf := &rt.procs[q]
	pf.down += tr - pf.downAt
	pf.downAt, pf.repairAt, pf.upAt = -1, sched.Never, tr
	rt.heap.Push(event{t: tr + rt.draw(rt.faults.MTBF, q), key: evCrash | uint32(q)})
	rt.tryRelease(q)
}

// repairCanUnblock reports whether some down processor with a scheduled
// repair has a runnable copy waiting: only then can the execution still
// make progress once no completion is in flight.
func (rt *runtime) repairCanUnblock() bool {
	if !rt.crashy {
		return false
	}
	for q, pf := range rt.procs {
		if pf.downAt < 0 || pf.repairAt == sched.Never {
			continue
		}
		for _, c := range rt.queue[q][rt.qpos[q]:] {
			v := rt.task(c)
			if rt.dead[c] || rt.done[v] {
				continue
			}
			if rt.deps[v] == 0 {
				return true
			}
			break // blocked behind a copy whose predecessors cannot finish
		}
	}
	return false
}

// pushPastOutages returns the earliest time at or after r not covered
// by an outage window of channel ch, generating windows on demand.
func (rt *runtime) pushPastOutages(ch int, r int64) int64 {
	g := &rt.gens[ch]
	u, v := rt.plan.channels[ch][0], rt.plan.channels[ch][1]
	for {
		for g.t <= r {
			up := expDuration(rt.faults.LinkMTBF, rt.trial, linkFaultEnt(u, v, g.k))
			out := expDuration(rt.faults.MeanOutage, rt.trial, linkFaultEnt(u, v, g.k+1))
			g.k += 2
			ws := g.t + up
			g.t = ws + out
			g.wins = append(g.wins, [2]int64{ws, g.t})
		}
		moved := false
		for _, w := range g.wins {
			if r >= w[0] && r < w[1] {
				r = w[1]
				moved = true
			}
		}
		if !moved {
			return r
		}
	}
}

// result stores the run's outcome: trailing downtime is clamped to the
// horizon so Busy + Idle + Down partitions each processor's share of it
// exactly.
func (rt *runtime) result(res *FaultResult) {
	np := rt.plan.numProcs
	if len(res.Busy) != np {
		buf := make([]int64, 3*np)
		res.Busy, res.Idle, res.Down = buf[:np:np], buf[np:2*np:2*np], buf[2*np:]
	}
	for q := 0; q < np; q++ {
		var d int64
		if rt.crashy {
			pf := &rt.procs[q]
			d = pf.down
			if pf.downAt >= 0 && rt.horizon > pf.downAt {
				d += rt.horizon - pf.downAt
			}
		}
		res.Busy[q], res.Down[q], res.Idle[q] = rt.busy[q], d, rt.horizon-rt.busy[q]-d
	}
	res.Static, res.Horizon, res.Crashes, res.Lost = rt.plan.static, rt.horizon, rt.crashes, rt.remaining
	res.Finished = rt.remaining == 0 && !rt.aborted
	res.Makespan, res.Ratio = 0, math.Inf(1)
	if res.Finished {
		res.Makespan, res.Ratio = rt.makespan, ratio(rt.makespan, rt.plan.static)
	}
}
