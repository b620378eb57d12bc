package sched

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dag"
	"repro/internal/obs"
)

// Tasks is the task side of a schedule: the processor timelines, the
// per-node placement arrays and the speed vector. Both communication
// models embed it — Schedule (the clique model) and machine.Schedule
// (messages routed over network links) — so the accessors, the
// execution-time rule, the makespan cache, the Place argument checks,
// the task-side validation and the placement trace exist once.
//
// Tasks has no exported method that changes placement state: a task is
// committed only through the outer type's Place, which keeps its own
// structures (the arrival cache, the message reservations) in step, and
// the outer type calls InsertTask to do the task half of that commit.
type Tasks struct {
	g      *dag.Graph
	procs  []Timeline
	proc   []int32 // node -> processor, -1 when unscheduled
	start  []int64
	finish []int64
	placed int

	// lastFin mirrors procs[p].LastFinish() in a flat array so the
	// non-insertion best-processor scan touches one cache line per few
	// processors instead of chasing a slot slice per processor.
	lastFin []int64

	// maxFin caches the makespan (max over lastFin): each commit folds
	// its finish in, so Makespan is O(1) instead of a scan.
	maxFin int64

	// speed optionally makes the processors heterogeneous (HEFT-style):
	// node n on processor p executes for ceil(Weight(n)/speed[p]) time
	// units. Nil means uniform unit speed, where the execution time is
	// exactly the node weight — the paper's homogeneous model. Link
	// transfer costs never depend on it.
	speed []float64
}

// NewTasks returns an empty task core for g on numProcs processors
// (at least one).
func NewTasks(g *dag.Graph, numProcs int) Tasks {
	var t Tasks
	t.reset(g, numProcs)
	return t
}

// reset rebinds the core to g on numProcs processors and empties it,
// reusing every backing array that is large enough.
func (t *Tasks) reset(g *dag.Graph, numProcs int) {
	if numProcs < 1 {
		numProcs = 1
	}
	t.g = g
	if cap(t.procs) >= numProcs {
		t.procs = t.procs[:numProcs]
		for i := range t.procs {
			t.procs[i].reset()
		}
	} else {
		// Carry the old timelines over so their slot capacity survives.
		old := t.procs[:cap(t.procs)]
		for i := range old {
			old[i].reset()
		}
		t.procs = make([]Timeline, numProcs)
		copy(t.procs, old)
	}
	t.lastFin = resize(t.lastFin, numProcs)
	clear(t.lastFin)
	n := g.NumNodes()
	t.proc = resize(t.proc, n)
	t.start = resize(t.start, n)
	t.finish = resize(t.finish, n)
	clear(t.start)
	clear(t.finish)
	for i := range t.proc {
		t.proc[i] = -1
	}
	t.placed = 0
	t.maxFin = 0
	t.speed = nil
}

// CheckSpeeds is the one rule for processor speed factors: each must be
// positive and finite. A zero, negative, NaN or infinite factor has no
// execution time (ceil(w/+Inf) is 0, and the rest are undefined).
func CheckSpeeds(speeds []float64) error {
	for p, sp := range speeds {
		if !(sp > 0) || math.IsInf(sp, 1) {
			return fmt.Errorf("sched: speed factor %g for processor %d must be positive and finite", sp, p)
		}
	}
	return nil
}

// SetSpeeds makes the processors heterogeneous: node n on processor p
// executes for ceil(Weight(n)/speeds[p]) time units. It must be called
// on an empty schedule (speeds change every execution time, so placed
// slots would become inconsistent), with one factor per processor that
// CheckSpeeds accepts. The vector is copied. A uniform all-ones vector
// reproduces the homogeneous model exactly: ceil(w/1) == w.
func (t *Tasks) SetSpeeds(speeds []float64) error {
	if t.placed != 0 {
		return fmt.Errorf("sched: SetSpeeds on a schedule with %d placed tasks", t.placed)
	}
	if len(speeds) != len(t.procs) {
		return fmt.Errorf("sched: %d speed factors for %d processors", len(speeds), len(t.procs))
	}
	if err := CheckSpeeds(speeds); err != nil {
		return err
	}
	t.speed = append(t.speed[:0], speeds...)
	return nil
}

// Speeds returns the per-processor speed vector, or nil for uniform unit
// speeds. The slice is shared with the schedule and must not be modified.
func (t *Tasks) Speeds() []float64 { return t.speed }

// ExecTime returns the execution time of node n on processor p:
// ceil(Weight(n)/speed[p]), or exactly the weight under uniform speeds.
func (t *Tasks) ExecTime(n dag.NodeID, p int) int64 {
	w := t.g.Weight(n)
	if t.speed == nil {
		return w
	}
	return int64(math.Ceil(float64(w) / t.speed[p]))
}

// Graph returns the task graph being scheduled.
func (t *Tasks) Graph() *dag.Graph { return t.g }

// NumProcs returns the number of processors available to the schedule.
func (t *Tasks) NumProcs() int { return len(t.procs) }

// IsScheduled reports whether node n has been placed.
func (t *Tasks) IsScheduled(n dag.NodeID) bool { return t.proc[n] >= 0 }

// Complete reports whether every node has been placed.
func (t *Tasks) Complete() bool { return t.placed == t.g.NumNodes() }

// Placed returns the number of nodes placed so far.
func (t *Tasks) Placed() int { return t.placed }

// ProcOf returns the processor of node n, or -1 if unscheduled.
func (t *Tasks) ProcOf(n dag.NodeID) int { return int(t.proc[n]) }

// StartOf returns the start time of a scheduled node.
func (t *Tasks) StartOf(n dag.NodeID) int64 { return t.start[n] }

// FinishOf returns the finish time of a scheduled node.
func (t *Tasks) FinishOf(n dag.NodeID) int64 { return t.finish[n] }

// Slots returns the timeline of processor p, sorted by start time. The
// returned slice is shared with the schedule and must not be modified.
func (t *Tasks) Slots(p int) []Slot { return t.procs[p].Slots() }

// EarliestFit returns the earliest start at or after ready at which a
// task of the given duration fits on processor p, under the insertion
// or append-only slot policy (see Timeline.EarliestFit).
func (t *Tasks) EarliestFit(p int, ready, duration int64, insertion bool) int64 {
	return t.procs[p].EarliestFit(ready, duration, insertion)
}

// Makespan returns the schedule length from the incrementally
// maintained cache: each commit folds its finish time into a running
// maximum, so the query is O(1) instead of a scan over all processors.
// 0 for an empty schedule.
func (t *Tasks) Makespan() int64 { return t.maxFin }

// Length returns the schedule length (makespan): the latest finish time
// over all processors, 0 for an empty schedule.
func (t *Tasks) Length() int64 { return t.maxFin }

// ProcessorsUsed returns the number of processors with at least one task
// (paper section 6.4.2).
func (t *Tasks) ProcessorsUsed() int {
	used := 0
	for i := range t.procs {
		if t.procs[i].Len() > 0 {
			used++
		}
	}
	return used
}

// NSL returns the normalized schedule length: the makespan divided by the
// sum of computation costs on a critical path (paper section 6). Only
// meaningful for complete schedules; returns 0 when the denominator is 0.
func (t *Tasks) NSL() float64 {
	den := dag.CPComputationSum(t.g)
	if den == 0 {
		return 0
	}
	return float64(t.Length()) / float64(den)
}

// CheckPlace reports why node n cannot be placed on processor p at
// start, or nil: n must be unscheduled, p in range and start
// non-negative. The outer type's Place calls it before any query or
// commit that would index by p.
func (t *Tasks) CheckPlace(n dag.NodeID, p int, start int64) error {
	if t.proc[n] >= 0 {
		return fmt.Errorf("sched: node %d already scheduled", n)
	}
	if p < 0 || p >= len(t.procs) {
		return fmt.Errorf("sched: processor %d out of range [0,%d)", p, len(t.procs))
	}
	if start < 0 {
		return fmt.Errorf("sched: negative start time %d for node %d", start, n)
	}
	return nil
}

// InsertTask commits node n to processor p over [start, finish): the
// timeline slot, the placement arrays, the last-finish mirror and the
// makespan cache. It is the task half of an outer type's Place, which
// has already run CheckPlace; it is a function rather than a method so
// it cannot be promoted onto (and bypass the bookkeeping of) a type
// that embeds Tasks.
func InsertTask(t *Tasks, n dag.NodeID, p int, start, finish int64) error {
	if err := t.procs[p].Insert(Slot{Node: n, Start: start, Finish: finish}); err != nil {
		return fmt.Errorf("sched: node %d on P%d: %w", n, p, err)
	}
	t.proc[n] = int32(p)
	t.start[n] = start
	t.finish[n] = finish
	t.placed++
	if finish > t.lastFin[p] {
		t.lastFin[p] = finish
	}
	if finish > t.maxFin {
		t.maxFin = finish
	}
	return nil
}

// ValidateTasks runs the checks every schedule model shares: timelines
// sorted and non-overlapping, slot durations equal to ExecTime (unless
// durations is false), slots agreeing with the placement arrays, every
// placed node's parents placed, and the placed counter. edge checks
// each placed node's inbound edges under the outer type's
// communication model.
func (t *Tasks) ValidateTasks(durations bool, edge func(parent, child dag.NodeID, weight int64) error) error {
	for p := range t.procs {
		if err := t.procs[p].Validate(); err != nil {
			return fmt.Errorf("sched: P%d: %w", p, err)
		}
		for _, sl := range t.procs[p].Slots() {
			if durations && sl.Finish-sl.Start != t.ExecTime(sl.Node, p) {
				return fmt.Errorf("sched: node %d duration %d != execution time %d",
					sl.Node, sl.Finish-sl.Start, t.ExecTime(sl.Node, p))
			}
			if t.proc[sl.Node] != int32(p) || t.start[sl.Node] != sl.Start {
				return fmt.Errorf("sched: node %d slot disagrees with placement arrays", sl.Node)
			}
		}
	}
	count := 0
	for v := 0; v < t.g.NumNodes(); v++ {
		n := dag.NodeID(v)
		if t.proc[n] < 0 {
			continue
		}
		count++
		for _, pr := range t.g.Preds(n) {
			if t.proc[pr.To] < 0 {
				return fmt.Errorf("sched: node %d scheduled before parent %d", n, pr.To)
			}
			if err := edge(pr.To, n, pr.Weight); err != nil {
				return err
			}
		}
	}
	if count != t.placed {
		return fmt.Errorf("sched: placed counter %d != %d placed nodes", t.placed, count)
	}
	return nil
}

// Listing renders every non-empty processor timeline, one line each:
// "P<p>: n<node>[<start>,<finish>) ...". The outer types' String
// methods put their own header line above it.
func (t *Tasks) Listing() string {
	var b strings.Builder
	for p := range t.procs {
		if t.procs[p].Len() == 0 {
			continue
		}
		fmt.Fprintf(&b, "P%d:", p)
		for _, sl := range t.procs[p].Slots() {
			fmt.Fprintf(&b, " n%d[%d,%d)", sl.Node, sl.Start, sl.Finish)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ESTQuery is the earliest-start-time query of a schedule model: the
// start node n could get on processor p under the given slot policy,
// with ok false when a parent of n is unscheduled.
type ESTQuery interface {
	ESTOn(n dag.NodeID, p int, insertion bool) (est int64, ok bool)
}

// traceCandidateCap bounds the candidate processors recorded per
// placement: the UNC class runs with one processor per node, and a
// million-node trace recording a million ESTs per record would be
// useless as well as enormous. The cap matches the BNPProcs ceiling, so
// every bounded-processor run records its full candidate set.
const traceCandidateCap = 32

// TracePlacement emits the decision record for an imminent commit of n
// on p over [start, finish), with candidate ESTs from the outer type's
// query q. It must run before the commit, so the candidates are exactly
// the values the scheduler could have seen when it chose; everything it
// reads is a query, so tracing cannot change the schedule.
func (t *Tasks) TracePlacement(tr *obs.Tracer, q ESTQuery, n dag.NodeID, p int, start, finish int64) {
	// A start before the processor's last finish means the slot went
	// into an idle gap: an insertion placement.
	insertion := start < t.lastFin[p]
	// Candidates are evaluated under the slot policy the scheduler
	// staged; without one, the placement itself is the best evidence.
	policy := insertion
	if staged, ok := tr.StagedPolicy(int32(n)); ok {
		policy = staged
	}
	cands := tr.CandidateBuf()
	np := min(len(t.procs), traceCandidateCap)
	for c := 0; c < np; c++ {
		est, ok := q.ESTOn(n, c, policy)
		if !ok {
			// Cluster-class schedulers may place a node before all its
			// parents; there is no candidate set to report then.
			cands = cands[:0]
			break
		}
		cands = append(cands, obs.Candidate{Proc: int32(c), EST: est})
	}
	tr.Placement(int32(n), int32(p), start, finish, insertion, cands)
}
