package unc

import (
	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/sched"
)

// DSC is the Dominant Sequence Clustering algorithm of Yang and
// Gerasoulis (1994).
//
// Nodes are examined in a topological sweep: a node is free once all its
// parents have been examined, and among free nodes the one with the
// highest t-level + b-level priority — the head of the current dominant
// sequence — is examined next. The node joins the cluster of one of its
// parents when doing so strictly reduces its start time (zeroing the
// edge from that parent); otherwise it starts a new cluster. Because
// examination order is topological, start times are final as soon as a
// node is examined.
//
// This implementation follows DSC-I, without the DSRW (dominant sequence
// reduction warranty) refinement for partially free nodes; the paper's
// qualitative findings — DSC close behind DCP, large processor counts
// because every non-reducing node opens a new cluster (Figure 3a) — are
// driven by the merge rule implemented here.
func DSC(g *dag.Graph) (*sched.Schedule, error) {
	return ScheduleHet("DSC", g, nil)
}

// runDSC is DSC with an optional heterogeneous speed prefix: the
// incremental start times that drive the merge decisions are speed-aware.
func runDSC(g *dag.Graph, speeds []float64) (*sched.Schedule, error) {
	n := g.NumNodes()
	s := acquire(g, max(n, 1), speeds)
	if n == 0 {
		return s, nil
	}
	bl := dag.BLevels(g) // descendants are unexamined, so static b-levels stay exact
	clusterEnd := make([]int64, n)
	clusterUsed := make([]bool, n)
	nextCluster := 0

	free := algo.NewReadySet(g)
	for !free.Empty() {
		// Priority = current t-level (earliest start with all incoming
		// edges still carrying communication) + static b-level.
		node := algo.MaxBy(free.Ready(), func(m dag.NodeID) int64 {
			return currentTLevel(g, s, m) + bl[m]
		})
		free.Pop(node)

		// Starting a fresh cluster keeps every incoming edge unzeroed.
		newEST := currentTLevel(g, s, node)
		// Joining a parent's cluster zeroes the edges from co-located
		// parents but must wait for the cluster to drain.
		bestCluster := -1
		var bestEST int64
		for _, pr := range g.Preds(node) {
			c := s.ProcOf(pr.To)
			if c < 0 {
				panic("unc: DSC free node has unexamined parent")
			}
			est := clusterEnd[c]
			for _, q := range g.Preds(node) {
				arrival := s.FinishOf(q.To)
				if s.ProcOf(q.To) != c {
					arrival += q.Weight
				}
				if arrival > est {
					est = arrival
				}
			}
			if bestCluster == -1 || est < bestEST || (est == bestEST && c < bestCluster) {
				bestCluster, bestEST = c, est
			}
		}
		var proc int
		var start int64
		if bestCluster >= 0 && bestEST < newEST {
			proc, start = bestCluster, bestEST
		} else {
			proc, start = nextCluster, newEST
			nextCluster++
		}
		s.MustPlace(node, proc, start)
		clusterUsed[proc] = true
		clusterEnd[proc] = s.FinishOf(node)
		free.MarkScheduled(g, node)
	}
	return s, nil
}

// currentTLevel is the earliest start of an unexamined free node with all
// incoming communication costs charged (its t-level in the current
// partially zeroed graph).
func currentTLevel(g *dag.Graph, s *sched.Schedule, n dag.NodeID) int64 {
	var t int64
	for _, pr := range g.Preds(n) {
		if c := s.FinishOf(pr.To) + pr.Weight; c > t {
			t = c
		}
	}
	return t
}
