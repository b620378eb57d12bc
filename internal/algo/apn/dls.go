package apn

import (
	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/machine"
)

// DLS is the Dynamic Level Scheduling algorithm of Sih and Lee (1993) in
// its APN form: identical to the BNP variant except that earliest start
// times are obtained by tentatively routing every parent message over
// the contended network links.
//
// At each step the (ready node, processor) pair maximizing the dynamic
// level DL(n,p) = SL(n) − EST(n,p) is committed. The exhaustive pair
// scan, with a message-routing query per pair, makes DLS the slowest
// APN algorithm in the paper's running-time comparison (section 6.4.3)
// while keeping its schedule quality stable across graph sizes.
func DLS(g *dag.Graph, topo *machine.Topology) (*machine.Schedule, error) {
	return ScheduleHet("DLS", g, topo, nil)
}

// runDLS is APN DLS with an optional heterogeneous speed vector.
func runDLS(g *dag.Graph, topo *machine.Topology, speeds []float64) (*machine.Schedule, error) {
	sl := dag.StaticLevels(g)
	s, err := newSchedule(g, topo, speeds)
	if err != nil {
		return nil, err
	}
	ready := algo.NewReadySet(g)
	for !ready.Empty() {
		bestNode := dag.None
		bestProc := -1
		var bestDL, bestEST int64
		for _, n := range ready.Ready() {
			for p := 0; p < topo.NumProcs(); p++ {
				est, ok := s.ESTOn(n, p, false)
				if !ok {
					panic("apn: DLS ready node has unscheduled parent")
				}
				dl := sl[n] - est
				if bestNode == dag.None || dl > bestDL ||
					(dl == bestDL && (n < bestNode || (n == bestNode && p < bestProc))) {
					bestNode, bestProc, bestDL, bestEST = n, p, dl, est
				}
			}
		}
		ready.Pop(bestNode)
		s.MustPlace(bestNode, bestProc, bestEST)
		ready.MarkScheduled(g, bestNode)
	}
	return s, nil
}
