package sched

import (
	"repro/internal/dag"
	"repro/internal/obs"
)

// EST-cache metrics: queries answered and cache rows rebuilt. The
// difference is the number of O(1) fast-path answers the incremental
// arrival cache served without a predecessor scan.
var (
	estQueries  = obs.NewCounter("sched.est.query")
	estRebuilds = obs.NewCounter("sched.est.rebuild")
)

// traceCandidateCap bounds the candidate processors recorded per
// placement: the UNC class runs with one processor per node, and a
// million-node trace recording a million ESTs per record would be
// useless as well as enormous. The cap matches the BNPProcs ceiling, so
// every bounded-processor run records its full candidate set.
const traceCandidateCap = 32

// tracePlacement emits the decision record for an imminent commit. It
// runs before the slot is inserted, so the candidate ESTs are exactly
// the values the scheduler could have seen when it chose; everything it
// reads is a query, so tracing cannot change the schedule.
func (s *Schedule) tracePlacement(t *obs.Tracer, n dag.NodeID, p int, start, finish int64) {
	// A start before the processor's last finish means the slot went
	// into an idle gap: an insertion placement.
	insertion := start < s.lastFin[p]
	// Candidates are evaluated under the slot policy the scheduler
	// staged; without one, the placement itself is the best evidence.
	policy := insertion
	if staged, ok := t.StagedPolicy(int32(n)); ok {
		policy = staged
	}
	cands := t.CandidateBuf()
	np := len(s.procs)
	if np > traceCandidateCap {
		np = traceCandidateCap
	}
	for q := 0; q < np; q++ {
		est, ok := s.ESTOn(n, q, policy)
		if !ok {
			// Cluster-class schedulers may place a node before all its
			// parents; there is no candidate set to report then.
			cands = cands[:0]
			break
		}
		cands = append(cands, obs.Candidate{Proc: int32(q), EST: est})
	}
	t.Placement(int32(n), int32(p), start, finish, insertion, cands)
}
