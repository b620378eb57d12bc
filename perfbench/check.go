package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/machine"
	"repro/internal/sched"
)

// The output checks below share no arithmetic with the schedulers:
// they read only the graph and each node's processor and start time,
// and every sum is overflow-checked, so a schedule that wraps int64
// inside a scheduler cannot pass by wrapping the same way here.

func checkedAdd(a, b int64) (int64, error) {
	c := a + b
	if (c > a) != (b > 0) {
		return 0, fmt.Errorf("int64 overflow adding %d and %d", a, b)
	}
	return c, nil
}

// checkClique re-verifies a clique-model schedule from the graph and
// the placements alone: every node sits on one of procs processors at
// a non-negative start, no node starts before each parent's finish plus
// the edge's communication cost when the two run on different
// processors, and no two tasks overlap on a processor. It returns the
// makespan it derives.
func checkClique(g *dag.Graph, procs int, s *sched.Schedule) (int64, error) {
	n := g.NumNodes()
	finish := make([]int64, n)
	byProc := make([][]dag.NodeID, procs)
	for v := 0; v < n; v++ {
		id := dag.NodeID(v)
		p, st := s.ProcOf(id), s.StartOf(id)
		if p < 0 || p >= procs {
			return 0, fmt.Errorf("node %d on processor %d of %d", v, p, procs)
		}
		if st < 0 {
			return 0, fmt.Errorf("node %d starts at %d", v, st)
		}
		f, err := checkedAdd(st, g.Weight(id))
		if err != nil {
			return 0, fmt.Errorf("node %d finish: %w", v, err)
		}
		finish[v] = f
		byProc[p] = append(byProc[p], id)
	}
	var makespan int64
	for v := 0; v < n; v++ {
		id := dag.NodeID(v)
		for _, a := range g.Preds(id) {
			arrival := finish[a.To]
			if s.ProcOf(a.To) != s.ProcOf(id) {
				var err error
				if arrival, err = checkedAdd(arrival, a.Weight); err != nil {
					return 0, fmt.Errorf("edge %d->%d arrival: %w", a.To, v, err)
				}
			}
			if s.StartOf(id) < arrival {
				return 0, fmt.Errorf("node %d starts at %d before data from %d arrives at %d", v, s.StartOf(id), a.To, arrival)
			}
		}
		makespan = max(makespan, finish[v])
	}
	for p, nodes := range byProc {
		sort.Slice(nodes, func(i, j int) bool { return s.StartOf(nodes[i]) < s.StartOf(nodes[j]) })
		for i := 1; i < len(nodes); i++ {
			if s.StartOf(nodes[i]) < finish[nodes[i-1]] {
				return 0, fmt.Errorf("nodes %d and %d overlap on processor %d", nodes[i-1], nodes[i], p)
			}
		}
	}
	return makespan, nil
}

// checkBounds enforces makespan >= max(critical-path computation,
// ceil(total computation / procs)), the two lower bounds no valid
// schedule on procs processors can beat.
func checkBounds(g *dag.Graph, procs int, makespan int64) error {
	var total int64
	for v := 0; v < g.NumNodes(); v++ {
		var err error
		if total, err = checkedAdd(total, g.Weight(dag.NodeID(v))); err != nil {
			return fmt.Errorf("total computation: %w", err)
		}
	}
	if cp := dag.CPComputationSum(g); makespan < cp {
		return fmt.Errorf("makespan %d below critical-path computation %d", makespan, cp)
	}
	if work := (total + int64(procs) - 1) / int64(procs); makespan < work {
		return fmt.Errorf("makespan %d below work bound %d on %d processors", makespan, work, procs)
	}
	return nil
}

// verifyClique checks a clique schedule completely: placements,
// bounds, and that its stated makespan is the one the placements give.
func verifyClique(g *dag.Graph, s *sched.Schedule) error {
	got, err := checkClique(g, s.NumProcs(), s)
	if err != nil {
		return err
	}
	if got != s.Makespan() {
		return fmt.Errorf("placements give makespan %d, schedule states %d", got, s.Makespan())
	}
	return checkBounds(g, s.NumProcs(), got)
}

// verifyAPN checks an APN schedule: complete, valid by the machine
// model's own validator (link reservations included), and within
// bounds. It returns the number of link hops its messages take.
func verifyAPN(g *dag.Graph, s *machine.Schedule) (int64, error) {
	if !s.Complete() {
		return 0, fmt.Errorf("%d of %d nodes placed", s.Placed(), g.NumNodes())
	}
	if err := s.Validate(); err != nil {
		return 0, err
	}
	var hops int64
	for v := 0; v < g.NumNodes(); v++ {
		for _, a := range g.Succs(dag.NodeID(v)) {
			s.EachMessageHop(dag.NodeID(v), a.To, func(machine.LinkHop) { hops++ })
		}
	}
	return hops, checkBounds(g, s.NumProcs(), s.Makespan())
}

// graphDigest hashes a graph's node weights and arc lists (target and
// weight of every arc, in order), so two graphs with equal digests are
// equal arc for arc.
func graphDigest(g *dag.Graph) [sha256.Size]byte {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	for v := 0; v < g.NumNodes(); v++ {
		id := dag.NodeID(v)
		arcs := g.Succs(id)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(g.Weight(id)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(arcs)))
		for _, a := range arcs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(a.To))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(a.Weight))
		}
		if len(buf) > 1<<15 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}
