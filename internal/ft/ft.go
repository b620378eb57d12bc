// Package ft studies static schedules on machines that fail: fail-stop
// processor crashes, transient link outages, and pluggable recovery
// policies that react to failures at runtime.
//
// The paper's benchmark — and the fault-free simulator — assume every
// processor survives the execution. This package closes that gap: a
// compiled Exec replays a clique schedule (sched.Schedule) or an APN
// schedule (machine.Schedule) under the fault model of sim.FaultModel,
// where a crash kills the task running on the processor and all
// unstarted work placed there, and a RecoveryPolicy decides what
// happens next. The replay is internal/sim's one discrete-event
// runtime: an Exec wraps a sim.Plan, and ft keeps no compiler, event
// loop or random draws of its own. Crash and repair events exist only
// when the model's MTBF is positive, outage windows only when its
// LinkMTBF is, and recovery runs only on a crash.
//
// # Determinism contract
//
// Every random quantity of a run — duration multipliers, uptimes,
// downtimes, outage windows — is a counter-based hash of
// (seed, trial, entity), exactly as in internal/sim: failure traces are
// a property of the machine and the trial, not of the schedule being
// executed, so the same trial presents the same failures to every
// algorithm and every recovery policy (paired comparisons), and results
// are byte-reproducible at any worker count.
//
// With the zero fault model a run is sim.Plan.Run on the same runtime,
// so it reproduces the fault-free simulator byte-identically for every
// schedule, policy, perturbation, and heterogeneous speed vector
// (pinned by the invariant tests and the golden replay digests).
//
// # Recovery policies
//
// None lets lost work stay lost: a run whose tasks cannot all finish
// reports Finished == false and a +Inf ratio (an SLO miss). Resubmit
// remaps the unfinished suffix of the execution onto the surviving
// processors with a list-scheduling repair pass (descending static
// b-level) that reuses the incremental EST cache of internal/sched,
// restricted by a per-processor availability mask. Checkpoint is
// resubmit plus periodic checkpoints: a re-executed task resumes from
// its last checkpoint boundary instead of from zero. Replicate
// duplicates the top-k static-b-level tasks on distinct processors when
// crashes can happen and takes the first finisher at runtime. Recovery
// policies apply to clique schedules; APN executions support None
// (rerouting around failures is out of scope — see docs/faults.md).
package ft

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// RecoveryPolicy reacts to processor failures during a simulated
// execution. Implementations are stateless and safe for concurrent use
// by independent runs.
type RecoveryPolicy interface {
	// Name identifies the policy in experiment output.
	Name() string

	// recovery returns the runtime hooks the policy enables.
	recovery() sim.Recovery
}

type nonePolicy struct{}

func (nonePolicy) Name() string           { return "none" }
func (nonePolicy) recovery() sim.Recovery { return sim.Recovery{} }

// None is the degradation baseline: no recovery. Tasks lost to a crash
// never finish and the run reports an SLO miss.
func None() RecoveryPolicy { return nonePolicy{} }

type resubmitPolicy struct{}

func (resubmitPolicy) Name() string           { return "resubmit" }
func (resubmitPolicy) recovery() sim.Recovery { return sim.Recovery{Resubmit: true} }

// Resubmit remaps the unfinished suffix of the execution onto the
// surviving processors at every crash, re-executing killed tasks from
// zero.
func Resubmit() RecoveryPolicy { return resubmitPolicy{} }

type checkpointPolicy struct{ every int64 }

func (c checkpointPolicy) Name() string { return "checkpoint" }
func (c checkpointPolicy) recovery() sim.Recovery {
	return sim.Recovery{Resubmit: true, Checkpoint: c.every}
}

// Checkpoint is Resubmit with periodic checkpoints of period every: a
// killed task resumes from its last completed checkpoint boundary
// instead of from zero. A non-positive period is clamped to 1.
func Checkpoint(every int64) RecoveryPolicy {
	if every < 1 {
		every = 1
	}
	return checkpointPolicy{every: every}
}

type replicatePolicy struct{ k int }

func (r replicatePolicy) Name() string           { return "replicate" }
func (r replicatePolicy) recovery() sim.Recovery { return sim.Recovery{Replicas: r.k} }

// Replicate duplicates the k tasks with the highest static b-level
// (the critical-path prefix) on distinct processors in the spare
// capacity of the static schedule; the execution takes each task's
// first finisher and cancels the not-yet-started sibling. k is clamped
// to the task count; on a single processor no replica can be placed,
// and with a fault model that cannot crash processors none is: a
// replica that wins the first-finisher race can reroute a child's data
// arrival through a lag the static schedule never paid, so speculative
// copies are pure overhead on a reliable machine.
func Replicate(k int) RecoveryPolicy {
	if k < 1 {
		k = 1
	}
	return replicatePolicy{k: k}
}

// Policies returns one instance of every recovery policy with the given
// checkpoint period and replication degree, in the canonical order the
// faults experiment reports them.
func Policies(checkpointEvery int64, replicateK int) []RecoveryPolicy {
	return []RecoveryPolicy{None(), Resubmit(), Checkpoint(checkpointEvery), Replicate(replicateK)}
}

// PolicyNames returns the canonical policy order of Policies.
func PolicyNames() []string { return []string{"none", "resubmit", "checkpoint", "replicate"} }

// Options parameterizes one fault-injected execution.
type Options struct {
	// Sim carries the perturbation model, dispatch policy, base seed,
	// and optional runtime speed factors, exactly as in sim.Options.
	Sim sim.Options
	// Faults is the failure model; the zero value injects no faults and
	// reproduces sim.Plan.Run byte-identically.
	Faults sim.FaultModel
	// Recovery selects the failure response; nil means None.
	Recovery RecoveryPolicy
	// Deadline, when positive, is the SLO used by MonteCarlo's survival
	// statistic: a trial survives when it finishes with a makespan at or
	// under the deadline. The engine itself does not stop at it.
	Deadline int64
}

// validate checks the options the runtime does not check itself.
func (o *Options) validate() error {
	if o.Deadline < 0 {
		return fmt.Errorf("ft: negative deadline %d", o.Deadline)
	}
	return nil
}

// recovery returns the configured policy, defaulting to None.
func (o *Options) recovery() RecoveryPolicy {
	if o.Recovery == nil {
		return nonePolicy{}
	}
	return o.Recovery
}

// Result reports one fault-injected execution of a schedule.
type Result = sim.FaultResult

// Exec is a compiled schedule ready for fault-injected execution: a
// sim.Plan, which for clique schedules keeps the graph and speeds
// recovery policies re-place work with. It is immutable after
// compilation and safe for concurrent Run calls.
type Exec struct {
	plan     *sim.Plan
	numProcs int
}

// Compile translates a complete clique-model schedule (BNP and UNC
// classes) into a fault-capable Exec.
func Compile(s *sched.Schedule) (*Exec, error) {
	plan, err := sim.Compile(s)
	if err != nil {
		return nil, err
	}
	return &Exec{plan: plan, numProcs: s.NumProcs()}, nil
}

// CompileAPN translates a complete APN schedule into a fault-capable
// Exec; link outages stall its channel queues.
func CompileAPN(s *machine.Schedule) (*Exec, error) {
	plan, err := sim.CompileAPN(s)
	if err != nil {
		return nil, err
	}
	return &Exec{plan: plan, numProcs: s.NumProcs()}, nil
}

// Static returns the planned (unperturbed) makespan of the compiled
// schedule.
func (x *Exec) Static() int64 { return x.plan.Static() }

// NumProcs returns the processor count of the compiled machine.
func (x *Exec) NumProcs() int { return x.numProcs }

// Run executes the schedule once under the given options and trial
// number. Runs are deterministic in (Options, trial) and independent of
// each other.
func (x *Exec) Run(opts Options, trial int) (Result, error) {
	var res Result
	if err := opts.validate(); err != nil {
		return res, err
	}
	return res, x.run(&opts, trial, &res)
}

// run executes one trial into res and records the ft.* counters.
func (x *Exec) run(opts *Options, trial int, res *Result) error {
	events, err := x.plan.RunFaults(opts.Sim, opts.Faults, opts.recovery().recovery(), trial, res)
	if err != nil {
		return err
	}
	if obs.MetricsEnabled() {
		ftRuns.Inc()
		ftEvents.Add(events)
		ftCrashes.Add(int64(res.Crashes))
		ftLost.Add(int64(res.Lost))
	}
	return nil
}
