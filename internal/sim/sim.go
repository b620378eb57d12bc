// Package sim executes static schedules under runtime variability: a
// deterministic, seeded discrete-event engine that replays a completed
// sched.Schedule (clique model) or machine.Schedule (arbitrary
// processor network) with perturbed task durations and communication
// costs, and a Monte-Carlo harness that turns repeated executions into
// robustness statistics.
//
// The paper ranks algorithms by the static makespan of the schedule
// they emit; real systems execute those schedules under stochastic task
// durations and network contention, where the static ranking can flip
// (Beránek et al., "Analysis of Workflow Schedulers in Simulated
// Distributed Environments"). This package supplies the missing
// execution axis.
//
// # Execution model
//
// A schedule is compiled once into a Plan: jobs (task executions, and
// per-link message transfers for APN schedules), precedence arcs that
// carry the communication delay, and one static FIFO queue per
// resource — each processor runs its tasks in the static start order
// and, for APN schedules, each directed channel serves its transfers in
// the static reservation order, store-and-forward along the committed
// route. Running the plan is a discrete-event simulation over an event
// heap (internal/pq): a job starts when its predecessors have finished
// and it heads its resource's queue, its perturbed duration elapses,
// and its completion releases successors.
//
// One pooled runtime executes every plan. Run and MonteCarlo use it
// without faults; RunFaults, which internal/ft calls, adds a
// FaultModel and a Recovery. Crash and repair events exist only when
// the model's MTBF is positive and channel outages only when its
// LinkMTBF is; recovery runs only on a crash and per-task copies exist
// only once replicas are added, so a run without faults takes the
// fault-free path exactly.
//
// Two dispatch policies are supported. PolicyTimetable (the default)
// releases every job no earlier than its planned static start, so
// delays right-shift through the dependency chains while the plan's
// ordering decisions are preserved exactly — with zero perturbation
// the simulation reproduces every static start time, and hence the
// static makespan, exactly, for any valid schedule. PolicyEager starts
// a job as soon as its dependencies clear, which can only move work
// earlier under zero perturbation (a work-conserving runtime that
// keeps the static assignment and ordering but ignores the clock).
//
// # Perturbation
//
// Durations are scaled by multiplicative factors drawn per entity
// (task or task-graph edge) from a configurable distribution: none,
// uniform over [1-s, 1+s], or mean-one lognormal with log-stddev s.
// Draws are counter-based — a hash of (seed, trial, entity) — so they
// are independent of event order, identical across algorithms for the
// same trial (paired comparisons), and byte-reproducible at any worker
// count. All hops of one message share the edge's multiplier.
//
// Compiling once and running many trials is allocation-light: the
// per-trial runtime state lives in a sync.Pool and the event heap is
// reused, so steady-state fault-free trials allocate nothing.
package sim

import (
	"fmt"
	"math"
)

// Distribution selects the shape of the multiplicative perturbation
// applied to task durations and communication costs.
type Distribution int

const (
	// DistNone applies no perturbation: every multiplier is exactly 1
	// and no random draws are made.
	DistNone Distribution = iota
	// DistUniform draws multipliers uniformly from [1-s, 1+s], where s
	// is the spread parameter (0 <= s <= 1).
	DistUniform
	// DistLognormal draws multipliers from a lognormal distribution
	// with mean 1 and log-standard-deviation s (the spread parameter).
	DistLognormal
)

// String returns the distribution's name.
func (d Distribution) String() string {
	switch d {
	case DistNone:
		return "none"
	case DistUniform:
		return "uniform"
	case DistLognormal:
		return "lognormal"
	}
	return fmt.Sprintf("Distribution(%d)", int(d))
}

// Policy selects when a job may start relative to its static plan.
type Policy int

const (
	// PolicyTimetable releases each job no earlier than its planned
	// static start time; delays right-shift through the dependency
	// chains. With zero perturbation the simulation reproduces the
	// static schedule — every start time and the makespan — exactly.
	PolicyTimetable Policy = iota
	// PolicyEager starts each job as soon as its dependencies clear,
	// ignoring planned start times (a work-conserving runtime that
	// keeps the static assignment and ordering). With zero
	// perturbation the realized makespan never exceeds the static one.
	PolicyEager
)

// String returns the policy's name.
func (p Policy) String() string {
	switch p {
	case PolicyTimetable:
		return "timetable"
	case PolicyEager:
		return "eager"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Perturbation configures the stochastic duration model of a run.
type Perturbation struct {
	// Dist is the multiplier distribution (none, uniform, lognormal).
	Dist Distribution
	// TaskSpread is the spread parameter applied to task durations:
	// the half-width for DistUniform, the log-stddev for DistLognormal.
	TaskSpread float64
	// CommSpread is the spread parameter applied to communication
	// costs (clique edge delays and APN link transfers).
	CommSpread float64
}

// Options parameterizes one simulated execution.
type Options struct {
	// Perturb is the stochastic duration model. The zero value (no
	// perturbation) replays the schedule deterministically.
	Perturb Perturbation
	// Policy selects the dispatch rule; the zero value is
	// PolicyTimetable.
	Policy Policy
	// Seed is the base random seed. Together with the trial number it
	// fully determines every multiplier of a run.
	Seed int64
	// Speed optionally slows processors non-uniformly: task durations
	// on processor p are additionally multiplied by Speed[p]. Nil
	// means all processors run at nominal speed; otherwise the length
	// must equal the schedule's processor count and every entry must
	// be positive.
	Speed []float64
}

// validate checks the options against a plan's processor count.
func (o *Options) validate(numProcs int) error {
	switch o.Perturb.Dist {
	case DistNone, DistUniform, DistLognormal:
	default:
		return fmt.Errorf("sim: unknown distribution %d", int(o.Perturb.Dist))
	}
	switch o.Policy {
	case PolicyTimetable, PolicyEager:
	default:
		return fmt.Errorf("sim: unknown policy %d", int(o.Policy))
	}
	for _, s := range [...]float64{o.Perturb.TaskSpread, o.Perturb.CommSpread} {
		if !(s >= 0) || math.IsInf(s, 1) {
			return fmt.Errorf("sim: spread %g must be finite and non-negative", s)
		}
		if o.Perturb.Dist == DistUniform && s > 1 {
			return fmt.Errorf("sim: uniform spread %g > 1 would allow negative durations", s)
		}
	}
	if o.Speed != nil {
		if len(o.Speed) != numProcs {
			return fmt.Errorf("sim: %d speed factors for %d processors", len(o.Speed), numProcs)
		}
		for p, s := range o.Speed {
			if !(s > 0) || math.IsInf(s, 1) {
				return fmt.Errorf("sim: speed factor %g for processor %d must be finite and positive", s, p)
			}
		}
	}
	return nil
}

// Result reports one simulated execution of a schedule.
type Result struct {
	// Static is the makespan of the schedule as planned.
	Static int64
	// Makespan is the realized makespan of the simulated execution.
	Makespan int64
	// Ratio is Makespan / Static (1 when Static is 0).
	Ratio float64
}

// ratio divides realized by static makespan, defining 0/0 as 1.
func ratio(makespan, static int64) float64 {
	if static == 0 {
		return 1
	}
	return float64(makespan) / float64(static)
}
