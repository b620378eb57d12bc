package param

import (
	"sync"

	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/sched"
)

// engine is the pooled per-run state of the generic component
// scheduler: level attributes, the per-node priority key, and — for the
// dynamic regime only — the median execution times (RuleDL) and the
// per-ready-node cache of the best placement under the combo's rule.
type engine struct {
	lv       dag.Levels
	key      []int64
	med      []int64
	execBuf  []int64
	bestProc []int32
	bestEST  []int64
	bestObj  []int64
}

var enginePool = sync.Pool{New: func() any { return new(engine) }}

// run executes the combo on a prepared (possibly heterogeneous)
// schedule.
func run(c Combo, g *dag.Graph, s *sched.Schedule) {
	e := enginePool.Get().(*engine)
	defer enginePool.Put(e)
	e.lv.Compute(g)
	key := e.priorityKey(c.Metric, g)
	if c.Regime == RegimeStatic {
		e.runStatic(c, g, s, key)
	} else {
		e.runDynamic(c, g, s, key)
	}
}

// priorityKey returns the metric's static total order as a per-node
// key: a higher key pops first, ties toward the smaller node ID (the
// ReadyHeap order). The static level is aliased, not copied.
func (e *engine) priorityKey(m Metric, g *dag.Graph) []int64 {
	if m == MetricSL || m == MetricDL {
		// MetricDL's static part is the static level, so the two share
		// an order.
		return e.lv.Static
	}
	n := g.NumNodes()
	e.key = resize(e.key, n)
	switch m {
	case MetricTL:
		// Ascending t-level: earliest possible start first.
		for v := range e.key {
			e.key[v] = -e.lv.T[v]
		}
	case MetricBT:
		// Descending t-level + b-level: critical-path nodes first.
		for v := range e.key {
			e.key[v] = e.lv.T[v] + e.lv.B[v]
		}
	case MetricALAP:
		for i, v := range algo.ALAPListOrder(g) {
			e.key[v] = -int64(i)
		}
	default:
		panic("param: unknown metric")
	}
	return e.key
}

// metricValue is node n's value under the static metric as decision
// traces report it: the static level, t-level, t-level + b-level, or
// ALAP time.
func (e *engine) metricValue(m Metric, n dag.NodeID, key []int64) int64 {
	switch m {
	case MetricTL:
		return e.lv.T[n]
	case MetricALAP:
		return e.lv.ALAP[n]
	}
	return key[n]
}

// runStatic is the fixed-priority-list regime: pop the ready node with
// the highest key, place it by rule and slot policy.
func (e *engine) runStatic(c Combo, g *dag.Graph, s *sched.Schedule, key []int64) {
	insertion := c.Slot == SlotInsertion
	ready := algo.AcquireReadyHeap(g, key)
	defer ready.Release()
	for !ready.Empty() {
		n := ready.PopMax()
		p, est, _ := bestPlacement(c.Rule, insertion, s, n)
		algo.TracePriority(n, e.metricValue(c.Metric, n, key), insertion)
		s.MustPlace(n, p, est)
		ready.MarkScheduled(g, n)
	}
}

// runDynamic is the dynamic regime: every ready node caches its best
// placement under the rule; each step schedules the globally best
// (node, processor) pair and re-evaluates only the nodes whose cached
// processor just received the task, plus the newly released ones.
//
// Correctness of the incremental re-evaluation: a ready node's data
// arrivals are fixed (all parents were scheduled before it became
// ready), so its EST on processor p changes only when p's slots change
// — that is, only for the processor that received the last placement,
// and only upward: under either slot policy, adding a slot can never
// open an earlier fit. A cached best on another processor therefore
// stays optimal: its own value is unchanged and the touched processor
// only got worse. This is what turns the paper's O(p·v²) ETF and DLS
// pair scans into O(p) work per re-evaluated node with identical
// schedules.
func (e *engine) runDynamic(c Combo, g *dag.Graph, s *sched.Schedule, key []int64) {
	insertion := c.Slot == SlotInsertion
	n := g.NumNodes()
	e.bestProc = resize(e.bestProc, n)
	e.bestEST = resize(e.bestEST, n)
	e.bestObj = resize(e.bestObj, n)
	if c.Rule == RuleDL {
		e.computeMedians(g, s)
	}
	sl, bestProc, bestObj := e.lv.Static, e.bestProc, e.bestObj
	ready := algo.AcquireReadySet(g)
	defer ready.Release()
	for _, m := range ready.Ready() {
		e.eval(c.Rule, insertion, s, m)
	}
	for !ready.Empty() {
		bestNode := dag.None
		var bestVal int64
		if c.Metric == MetricDL {
			// Maximize the dynamic level SL − objective, ties toward the
			// smaller node ID (Sih & Lee).
			for _, m := range ready.Ready() {
				dl := sl[m] - bestObj[m]
				if bestNode == dag.None || dl > bestVal || (dl == bestVal && m < bestNode) {
					bestNode, bestVal = m, dl
				}
			}
		} else {
			// Minimize the objective, ties by the static key, then the
			// smaller ID (for MetricSL this is ETF's
			// higher-static-level-then-smaller-ID chain).
			for _, m := range ready.Ready() {
				obj := bestObj[m]
				if bestNode == dag.None || obj < bestVal ||
					(obj == bestVal && (key[m] > key[bestNode] || (key[m] == key[bestNode] && m < bestNode))) {
					bestNode, bestVal = m, obj
				}
			}
		}
		placed := bestProc[bestNode]
		ready.Pop(bestNode)
		algo.TracePriority(bestNode, bestVal, insertion)
		s.MustPlace(bestNode, int(placed), e.bestEST[bestNode])
		for _, m := range ready.Ready() {
			if bestProc[m] == placed {
				e.eval(c.Rule, insertion, s, m)
			}
		}
		for _, m := range ready.MarkScheduled(g, bestNode) {
			e.eval(c.Rule, insertion, s, m)
		}
	}
}

// eval caches the best placement of ready node n for the dynamic
// regime. RuleDL's objective is charged relative to the node's median
// execution time: a per-node constant, so it cannot change the argmin
// over processors, only the value carried into node selection.
func (e *engine) eval(rule Rule, insertion bool, s *sched.Schedule, n dag.NodeID) {
	p, est, obj := bestPlacement(rule, insertion, s, n)
	if rule == RuleDL {
		obj -= e.med[n]
	}
	e.bestProc[n], e.bestEST[n], e.bestObj[n] = int32(p), est, obj
}

// bestPlacement returns the processor minimizing the rule's objective
// for ready node n under the slot policy, ties toward lower indices,
// with the EST there and the objective value (the EST for RuleEST, the
// finish time for RuleEFT and RuleDL).
func bestPlacement(rule Rule, insertion bool, s *sched.Schedule, n dag.NodeID) (int, int64, int64) {
	if rule == RuleEST {
		var (
			p   int
			est int64
			ok  bool
		)
		if insertion {
			p, est, ok = s.BestEST(n, true)
		} else {
			p, est, ok = s.BestESTNonInsertion(n)
		}
		if !ok {
			panic("param: ready node has unscheduled parent")
		}
		return p, est, est
	}
	best := -1
	var bestEST, bestObj int64
	for p := 0; p < s.NumProcs(); p++ {
		est, ok := s.ESTOn(n, p, insertion)
		if !ok {
			panic("param: ready node has unscheduled parent")
		}
		obj := est + s.ExecTime(n, p)
		if best == -1 || obj < bestObj {
			best, bestEST, bestObj = p, est, obj
		}
	}
	return best, bestEST, bestObj
}

// computeMedians fills e.med with each node's lower median execution
// time across processors, the reference point of RuleDL's objective. On
// a homogeneous schedule this is simply the node weight.
func (e *engine) computeMedians(g *dag.Graph, s *sched.Schedule) {
	e.med = resize(e.med, g.NumNodes())
	if s.Speeds() == nil {
		for v := range e.med {
			e.med[v] = g.Weight(dag.NodeID(v))
		}
		return
	}
	numProcs := s.NumProcs()
	buf := e.execBuf[:0]
	for v := range e.med {
		buf = buf[:0]
		for p := 0; p < numProcs; p++ {
			// Insertion sort: numProcs is small (≤ 32 in the study).
			t := s.ExecTime(dag.NodeID(v), p)
			i := len(buf)
			buf = append(buf, t)
			for i > 0 && buf[i-1] > buf[i] {
				buf[i-1], buf[i] = buf[i], buf[i-1]
				i--
			}
		}
		e.med[v] = buf[(numProcs-1)/2]
	}
	e.execBuf = buf
}

// resize returns a slice of length n, reusing s's backing array when it
// has the capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
