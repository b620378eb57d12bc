package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/algo"
	"repro/internal/algo/apn"
	"repro/internal/algo/bnp"
	"repro/internal/algo/param"
	"repro/internal/algo/unc"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/ft"
	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
)

// workload is one named input set. setup generates its inputs from
// the seed and returns the cycle of ops the timed phase repeats.
type workload struct {
	name  string
	tailQ float64 // percentile reported as op_ms_tail, fixed so runs compare; 0 reports the slowest op
	setup func(seed int64, e *env) (*cycle, error)
	// latSample, when set, reduces the phase's per-op latencies to the
	// sample op_ms_p50 and op_ms_tail are taken from, and describes it.
	latSample func(c *cycle, lat []int64) ([]int64, string)
}

// cycle is a workload's inputs: the ops, in the order the closed loop
// issues them, and the probes a traced run times after its timed phase.
type cycle struct {
	ops    []*op
	probes func(e *env) error
}

// op is one unit of closed-loop load. run returns a value that
// identifies the op's output (a makespan, or a Monte-Carlo summary),
// and every run must return the expected value. expect, when set,
// computes that value independently of run and deep-checks it, before
// any timing; an op without it deep-checks its first run inline, and
// that run's value becomes the expected one.
type op struct {
	name   string
	nodes  int64
	run    func(e *env, first bool) (int64, error)
	expect func() (int64, error)
	hops   int64 // message hops of the op's APN schedule, set by expect

	want int64
	done bool
	err  error
}

var workloads = []workload{
	{name: "bnp-sweep", tailQ: 0.99, setup: setupBNPSweep},
	{name: "unc-apn-sweep", tailQ: 0.95, setup: setupUNCAPNSweep},
	{name: "million-pipeline", tailQ: 0, setup: setupMillion, latSample: pipelineLatency},
	{name: "mc-replay", tailQ: 0.95, setup: setupMCReplay},
}

// bnpParamCombos are the param combinations that duplicate the BNP
// kernels HLFET, MCP, ETF and DLS.
var bnpParamCombos = []string{"sl/est/ni/st", "alap/est/ins/st", "sl/est/ni/dy", "dl/est/ni/dy"}

// spanName is the span and metric prefix of one registry algorithm,
// e.g. "algo.bnp.hlfet" or "algo.param.sl-est-ni-st".
func spanName(a core.Algorithm) string {
	return "algo." + strings.ToLower(string(a.Class)) + "." + strings.ToLower(strings.ReplaceAll(a.Name, "/", "-"))
}

// scheduleDirect schedules g with the algorithm's own kernel, outside
// the registry, so a check can inspect the schedule the registry's Run
// measures and discards.
func scheduleDirect(a core.Algorithm, g *dag.Graph, procs int, topo *machine.Topology) (*sched.Schedule, *machine.Schedule, error) {
	switch a.Class {
	case core.BNP:
		s, err := bnp.Algorithms()[a.Name](g, procs)
		return s, nil, err
	case core.PARAM:
		c, err := param.ParseCombo(a.Name)
		if err != nil {
			return nil, nil, err
		}
		s, err := c.Schedule(g, procs, nil)
		return s, nil, err
	case core.UNC:
		s, err := unc.Algorithms()[a.Name](g)
		return s, nil, err
	case core.APN:
		s, err := apn.Algorithms()[a.Name](g, topo)
		return nil, s, err
	}
	return nil, nil, fmt.Errorf("unknown class %q", a.Class)
}

// cellOp schedules g through the registry (core.Algorithm.Run), which
// discards the schedule; its expected makespan comes from the kernel's
// own schedule, checked independently.
func cellOp(label string, a core.Algorithm, g *dag.Graph, procs int, topo *machine.Topology) *op {
	name := spanName(a)
	o := &op{name: label + "/" + a.Name, nodes: int64(g.NumNodes())}
	o.run = func(e *env, _ bool) (int64, error) {
		var res core.Result
		err := e.call(name, func() (err error) {
			res, err = a.Run(g, procs, topo)
			return err
		})
		e.count("core.calls", 1)
		e.count("machine.hops", float64(o.hops))
		return res.Length, err
	}
	o.expect = func() (int64, error) {
		s, ms, err := scheduleDirect(a, g, procs, topo)
		if err != nil {
			return 0, err
		}
		if ms != nil {
			o.hops, err = verifyAPN(g, ms)
			return ms.Makespan(), err
		}
		defer s.Release()
		return s.Makespan(), verifyClique(g, s)
	}
	return o
}

// levelsProbe times dag.ComputeLevels on each graph, and
// algo.ALAPListOrder on each MCP input.
func levelsProbe(graphs, mcpInputs []*dag.Graph) func(e *env) error {
	return func(e *env) error {
		for _, g := range graphs {
			e.call("dag.levels", func() error { dag.ComputeLevels(g); return nil })
		}
		for _, g := range mcpInputs {
			e.call("algo.alap_order", func() error { algo.ALAPListOrder(g); return nil })
		}
		return nil
	}
}

func genRGNOS(e *env, rng *rand.Rand, v int, ccr float64, par int) *dag.Graph {
	var g *dag.Graph
	e.call("gen", func() error { g = gen.RGNOSGraph(rng, v, ccr, par); return nil })
	e.count("gen.nodes", float64(v))
	return g
}

// setupBNPSweep builds the paper's Table 6 RGNOS grid (250 graphs)
// scheduled by the 6 BNP kernels and the 4 param combos that duplicate
// them: 2,500 cells.
func setupBNPSweep(seed int64, e *env) (*cycle, error) {
	algs := core.ByClass(core.BNP)
	for _, name := range bnpParamCombos {
		c, err := param.ParseCombo(name)
		if err != nil {
			return nil, err
		}
		algs = append(algs, core.ParamAlgorithm(c))
	}
	rng := rand.New(rand.NewSource(seed))
	c := &cycle{}
	var graphs []*dag.Graph
	for v := 50; v <= 500; v += 50 {
		for _, ccr := range gen.RGNOSCCRs {
			for par := 1; par <= 5; par++ {
				g := genRGNOS(e, rng, v, ccr, par)
				graphs = append(graphs, g)
				label := fmt.Sprintf("v%d-ccr%g-w%d", v, ccr, par)
				for _, a := range algs {
					c.ops = append(c.ops, cellOp(label, a, g, core.BNPProcs(v), nil))
				}
			}
		}
	}
	c.probes = levelsProbe(graphs, graphs)
	return c, nil
}

// uncInstances is the number of graphs per unc-apn-sweep grid point.
// Its costliest cells (BSA at v = 150) dominate the op time, so two
// instances per point keep a run from resting on a few graphs.
const uncInstances = 2

// setupUNCAPNSweep builds 54 RGNOS graphs scheduled by the 5 UNC and
// the 4 APN kernels, APN on an 8-processor hypercube.
func setupUNCAPNSweep(seed int64, e *env) (*cycle, error) {
	algs := append(core.ByClass(core.UNC), core.ByClass(core.APN)...)
	topo := machine.Hypercube(3)
	rng := rand.New(rand.NewSource(seed))
	c := &cycle{}
	var graphs []*dag.Graph
	for _, v := range []int{50, 100, 150} {
		for _, ccr := range []float64{0.1, 1, 10} {
			for _, par := range []int{1, 3, 5} {
				for i := 0; i < uncInstances; i++ {
					g := genRGNOS(e, rng, v, ccr, par)
					graphs = append(graphs, g)
					label := fmt.Sprintf("v%d-ccr%g-w%d-%d", v, ccr, par, i)
					for _, a := range algs {
						c.ops = append(c.ops, cellOp(label, a, g, 0, topo))
					}
				}
			}
		}
	}
	c.probes = levelsProbe(graphs, nil)
	return c, nil
}

const (
	millionNodes = 1_000_000
	mcpCapNodes  = 4_000 // MCP's node cap in -exp scaling
)

// streamingParams gives the streaming families E ≈ 4V, as -exp scaling
// does.
func streamingParams(family string, v int) gen.Params {
	p := gen.Params{"v": strconv.Itoa(v)}
	switch family {
	case "layered":
		p["p"] = fmt.Sprintf("%g", math.Min(1, 4/math.Sqrt(float64(v))))
	case "erdos":
		p["p"] = fmt.Sprintf("%g", math.Min(1, 8/float64(v-1)))
	}
	return p
}

func registryAlg(class core.Class, name string) core.Algorithm {
	for _, a := range core.ByClass(class) {
		if a.Name == name {
			return a
		}
	}
	panic("no registry algorithm " + name)
}

// setupMillion generates MCP's 4,000-node layered input; the ops
// generate, encode, decode and schedule one 10^6-node graph per
// streaming family.
func setupMillion(seed int64, e *env) (*cycle, error) {
	var small *dag.Graph
	err := e.call("gen", func() (err error) {
		small, err = gen.Generate("layered", seed, streamingParams("layered", mcpCapNodes))
		return err
	})
	if err != nil {
		return nil, err
	}
	e.count("gen.nodes", mcpCapNodes)
	c := &cycle{probes: levelsProbe([]*dag.Graph{small}, []*dag.Graph{small})}
	c.ops = append(c.ops, cellOp("layered-4000", registryAlg(core.BNP, "MCP"), small, core.BNPProcs(mcpCapNodes), nil))
	hlfet := registryAlg(core.BNP, "HLFET")
	for _, fam := range []string{"layered", "erdos", "faninout"} {
		params := streamingParams(fam, millionNodes)
		c.ops = append(c.ops, &op{
			name:  fam + "-1000000/pipeline",
			nodes: millionNodes,
			run: func(e *env, first bool) (int64, error) {
				return pipelinePass(e, first, fam, seed, params, hlfet)
			},
		})
	}
	return c, nil
}

// pipelineLatency gives million-pipeline's latency sample: one value
// per 10^6-node family, the median of its pass times over the run's
// cycles. The MCP op is left out, and the sample has three values
// however many cycles the run fits, so op_ms_p50 is the middle family's
// pass and op_ms_tail the slowest family's.
func pipelineLatency(c *cycle, lat []int64) ([]int64, string) {
	var out []int64
	for j, o := range c.ops {
		if o.nodes != millionNodes {
			continue
		}
		var xs []float64
		for i := j; i < len(lat); i += len(c.ops) {
			xs = append(xs, float64(lat[i]))
		}
		out = append(out, int64(median(xs)))
	}
	return out, fmt.Sprintf("median pass time of each 10^6-node family over %d cycles", len(lat)/len(c.ops))
}

// pipelinePass runs one graph through generate → .tgb write → .tgb
// read → .tg write → .tg read → HLFET. Each decoded graph must equal
// the generated one arc for arc, and the first HLFET schedule of a run
// is re-checked independently; checks are excluded from the op's time.
// Graphs are compared through a SHA-256 of their arc lists so each can
// be dropped once encoded, which keeps the working set near one graph
// and one encoding.
func pipelinePass(e *env, first bool, fam string, seed int64, params gen.Params, hlfet core.Algorithm) (int64, error) {
	var g *dag.Graph
	var tgb, tg bytes.Buffer
	var want [sha256.Size]byte
	decoded := func(what string) func() error {
		return func() error {
			if got := graphDigest(g); got != want {
				return fmt.Errorf("%s decodes to a graph that differs from the generated one", what)
			}
			return nil
		}
	}
	if err := e.call("gen", func() (err error) { g, err = gen.Generate(fam, seed, params); return err }); err != nil {
		return 0, err
	}
	v := float64(g.NumNodes())
	e.count("gen.nodes", v)
	e.check(func() error { want = graphDigest(g); return nil })
	if err := e.call("dag.tgb_write", func() error { return dag.WriteBinary(&tgb, g) }); err != nil {
		return 0, err
	}
	g = nil
	if err := e.call("dag.tgb_read", func() (err error) { g, err = dag.ReadBinary(bytes.NewReader(tgb.Bytes())); return err }); err != nil {
		return 0, err
	}
	e.count("dag.tgb_bytes", float64(tgb.Len()))
	e.check(decoded(".tgb"))
	tgb = bytes.Buffer{}
	if err := e.call("dag.tg_write", func() error { return dag.WriteText(&tg, g) }); err != nil {
		return 0, err
	}
	g = nil
	if err := e.call("dag.tg_read", func() (err error) { g, err = dag.ReadText(bytes.NewReader(tg.Bytes())); return err }); err != nil {
		return 0, err
	}
	e.count("dag.tg_bytes", float64(tg.Len()))
	e.count("dag.read_nodes", 2*v)
	tg = bytes.Buffer{}
	e.check(decoded(".tg"))
	procs := core.BNPProcs(g.NumNodes())
	var res core.Result
	err := e.call(spanName(hlfet), func() (err error) { res, err = hlfet.Run(g, procs, nil); return err })
	e.count("core.calls", 1)
	if err != nil {
		return 0, err
	}
	if first {
		e.check(func() error {
			s, err := bnp.HLFET(g, procs)
			if err != nil {
				return err
			}
			defer s.Release()
			if s.Makespan() != res.Length {
				return fmt.Errorf("registry makespan %d, kernel schedule %d", res.Length, s.Makespan())
			}
			return verifyClique(g, s)
		})
	}
	return res.Length, e.checkErr
}

// Monte-Carlo settings of mc-replay.
const (
	mcTrials = 10
	mcSpread = 0.3 // lognormal log-stddev of task and message durations
	mcMTBF   = 4   // processor (and link) MTBF as a multiple of the static makespan
)

// setupMCReplay schedules 18 RGNOS graphs at v ∈ {100, 200} with MCP on
// 8 clique processors and MH on the hypercube; the ops compile each
// schedule with sim and ft and Monte-Carlo execute it, perturbed (sim)
// and under crashes with each recovery policy (ft).
func setupMCReplay(seed int64, e *env) (*cycle, error) {
	rng := rand.New(rand.NewSource(seed))
	topo := machine.Hypercube(3)
	mcp, mh := registryAlg(core.BNP, "MCP"), registryAlg(core.APN, "MH")
	c := &cycle{}
	var graphs []*dag.Graph
	k := 0
	for _, v := range []int{100, 200} {
		for _, ccr := range []float64{0.1, 1, 10} {
			for _, par := range []int{1, 3, 5} {
				g := genRGNOS(e, rng, v, ccr, par)
				graphs = append(graphs, g)
				var s *sched.Schedule
				var ms *machine.Schedule
				if err := e.call(spanName(mcp), func() (err error) { s, err = bnp.MCP(g, 8); return err }); err != nil {
					return nil, err
				}
				if err := e.call(spanName(mh), func() (err error) { ms, err = apn.MH(g, topo); return err }); err != nil {
					return nil, err
				}
				label := fmt.Sprintf("v%d-ccr%g-w%d", v, ccr, par)
				c.ops = append(c.ops, replayOps(label+"/MCP", g, seed+int64(k), s, nil)...)
				c.ops = append(c.ops, replayOps(label+"/MH", g, seed+int64(k)+1, nil, ms)...)
				k += 2
			}
		}
	}
	c.probes = levelsProbe(graphs, graphs)
	return c, nil
}

// replayOps builds the ops of one schedule (clique s or APN ms):
// compile with sim, compile with ft, a perturbed sim Monte-Carlo, and
// an ft Monte-Carlo under crashes per recovery policy (APN schedules
// support only "none"). The ops pass the compiled plan and exec along
// the cycle, so each Monte-Carlo runs on the plan compiled before it.
func replayOps(label string, g *dag.Graph, seed int64, s *sched.Schedule, ms *machine.Schedule) []*op {
	v := int64(g.NumNodes())
	var plan *sim.Plan
	var exec *ft.Exec
	perturbed := sim.Options{Perturb: sim.Perturbation{Dist: sim.DistLognormal, TaskSpread: mcSpread, CommSpread: mcSpread}, Seed: seed}
	static := ms.Makespan
	policies := []ft.RecoveryPolicy{ft.None()}
	if s != nil {
		static = s.Makespan
		policies = ft.Policies(max(1, static()/16), max(1, g.NumNodes()/10))
	}
	faults := sim.FaultModel{MTBF: mcMTBF * static(), MeanRepair: max(1, static()/10)}
	if s == nil {
		faults.LinkMTBF, faults.MeanOutage = faults.MTBF, max(1, static()/20)
	}
	compileSim := func() (err error) {
		if s != nil {
			plan, err = sim.Compile(s)
		} else {
			plan, err = sim.CompileAPN(ms)
		}
		return err
	}
	compileFT := func() (err error) {
		if s != nil {
			exec, err = ft.Compile(s)
		} else {
			exec, err = ft.CompileAPN(ms)
		}
		return err
	}
	simMC := func() (int64, error) {
		st, err := sim.MonteCarlo(plan, perturbed, mcTrials)
		return int64(math.Float64bits(st.MeanMakespan)), err
	}
	ops := []*op{
		{
			name: label + "/sim.compile", nodes: v,
			run: func(e *env, _ bool) (int64, error) {
				err := e.call("sim.compile", compileSim)
				return plan.Static(), err
			},
			// The schedule is checked independently, and the plan's
			// zero-variance timetable replay must reproduce its static
			// makespan.
			expect: func() (int64, error) {
				if s != nil {
					if err := verifyClique(g, s); err != nil {
						return 0, err
					}
				} else if _, err := verifyAPN(g, ms); err != nil {
					return 0, err
				}
				if err := compileSim(); err != nil {
					return 0, err
				}
				mk, err := plan.Run(sim.Options{}, 0)
				if err == nil && (mk != static() || plan.Static() != static()) {
					err = fmt.Errorf("zero-variance replay %d, plan static %d, schedule makespan %d", mk, plan.Static(), static())
				}
				return static(), err
			},
		},
		{
			name: label + "/ft.compile", nodes: v,
			run: func(e *env, _ bool) (int64, error) {
				err := e.call("ft.compile", compileFT)
				return exec.Static(), err
			},
			// Without faults, ft must replay every perturbed trial
			// exactly as sim does.
			expect: func() (int64, error) {
				if err := compileFT(); err != nil {
					return 0, err
				}
				for t := 0; t < mcTrials; t++ {
					want, err := plan.Run(perturbed, t)
					if err != nil {
						return 0, err
					}
					got, err := exec.Run(ft.Options{Sim: perturbed}, t)
					if err != nil {
						return 0, err
					}
					if !got.Finished || got.Makespan != want {
						return 0, fmt.Errorf("trial %d: zero-fault ft makespan %d (finished %v), sim %d", t, got.Makespan, got.Finished, want)
					}
				}
				return exec.Static(), nil
			},
		},
		{
			name: label + "/sim.mc", nodes: v * mcTrials,
			run: func(e *env, _ bool) (val int64, err error) {
				err = e.call("sim.mc", func() (err error) { val, err = simMC(); return err })
				return val, err
			},
			// The Monte-Carlo mean must equal the mean of the trials
			// replayed one by one.
			expect: func() (int64, error) {
				val, err := simMC()
				if err != nil {
					return 0, err
				}
				var sum float64
				for t := 0; t < mcTrials; t++ {
					mk, err := plan.Run(perturbed, t)
					if err != nil {
						return 0, err
					}
					sum += float64(mk)
				}
				if got := math.Float64frombits(uint64(val)); got != sum/mcTrials {
					return 0, fmt.Errorf("Monte-Carlo mean %g, replayed trials average %g", got, sum/mcTrials)
				}
				return val, nil
			},
		},
	}
	for _, pol := range policies {
		name := "ft.mc." + pol.Name()
		opts := ft.Options{Sim: perturbed, Faults: faults, Recovery: pol}
		// ftMC sums the trials' makespans, -1 for each unfinished one.
		ftMC := func() (int64, error) {
			st, err := ft.MonteCarlo(exec, opts, mcTrials)
			var sum int64
			for _, mk := range st.Makespans {
				sum += mk
			}
			return sum, err
		}
		ops = append(ops, &op{
			name: label + "/" + name, nodes: v * mcTrials,
			run: func(e *env, _ bool) (val int64, err error) {
				err = e.call(name, func() (err error) { val, err = ftMC(); return err })
				e.count("ft.trials", mcTrials)
				return val, err
			},
			// The Monte-Carlo record must match the trials replayed one
			// by one.
			expect: func() (int64, error) {
				val, err := ftMC()
				if err != nil {
					return 0, err
				}
				var sum int64
				for t := 0; t < mcTrials; t++ {
					r, err := exec.Run(opts, t)
					if err != nil {
						return 0, err
					}
					if !r.Finished {
						r.Makespan = -1
					}
					sum += r.Makespan
				}
				if sum != val {
					return 0, fmt.Errorf("Monte-Carlo makespan sum %d, replayed trials sum %d", val, sum)
				}
				return val, nil
			},
		})
	}
	return ops
}
