package main

import (
	"strings"

	"repro/internal/ft"
	"repro/internal/obs"
)

type named struct{ name, unit string }

// layerMetrics are the per-layer metrics of a traced run, in report
// order. A layer a workload does not call reads 0. README.md maps each
// to the end-to-end metric and workload it should move.
var layerMetrics = func() []named {
	out := []named{
		{"gen.busy_s", "s"}, {"gen.alloc_bytes_per_node", "B/node"},
		{"dag.tgb_write_s", "s"}, {"dag.tgb_read_s", "s"}, {"dag.tg_write_s", "s"}, {"dag.tg_read_s", "s"},
		{"dag.tgb_bytes_per_node", "B/node"}, {"dag.tg_bytes_per_node", "B/node"},
		{"dag.read_alloc_bytes_per_node", "B/node"}, {"dag.levels_s", "s"},
	}
	for _, a := range algoSpans {
		out = append(out, named{a + ".busy_s", "s"})
	}
	for _, class := range algoClasses {
		out = append(out, named{"algo." + class + ".alloc_bytes", "B"})
	}
	out = append(out, []named{
		{"algo.alap_order_s", "s"}, {"algo.alap_order_bytes", "B"},
		{"sched.est.query", "count"}, {"sched.est.rebuild", "count"}, {"sched.rebuild_ratio", "ratio"},
		{"machine.hops", "count"},
		{"sim.compile_s", "s"}, {"sim.mc_s", "s"}, {"sim.runs", "count"}, {"sim.events", "count"},
		{"sim.stalls", "count"}, {"sim.events_per_s", "1/s"},
		{"ft.compile_s", "s"},
	}...)
	for _, pol := range ft.PolicyNames() {
		out = append(out, named{"ft.mc_s." + pol, "s"})
	}
	return append(out, []named{
		{"ft.runs", "count"}, {"ft.events", "count"}, {"ft.crashes", "count"}, {"ft.lost", "count"},
		{"ft.alloc_bytes_per_trial", "B/trial"},
		{"core.alg.runs", "count"},
		{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_s", "s"},
		{"bench.self_s", "s"}, {"bench.check_s", "s"}, {"bench.stage_gap", "ratio"},
		{"trace.overhead_ratio", "ratio"},
	}...)
}()

var algoClasses = []string{"bnp", "param", "unc", "apn"}

// algoSpans are the span names of the 15 registry algorithms and the 4
// param combos the benchmark runs.
var algoSpans = []string{
	"algo.bnp.hlfet", "algo.bnp.ish", "algo.bnp.etf", "algo.bnp.last", "algo.bnp.mcp", "algo.bnp.dls",
	"algo.unc.ez", "algo.unc.lc", "algo.unc.dsc", "algo.unc.md", "algo.unc.dcp",
	"algo.apn.mh", "algo.apn.dls", "algo.apn.bu", "algo.apn.bsa",
	"algo.param.sl-est-ni-st", "algo.param.alap-est-ins-st", "algo.param.sl-est-ni-dy", "algo.param.dl-est-ni-dy",
}

// layerValues derives the per-layer metrics from the spans and counts
// of a traced run (set-up, timed phase p and probes), the program's
// own counters, and the untraced phase bare that ran the same ops.
func layerValues(tr *tracer, p, bare *phase) map[string]float64 {
	t := tr.totals()
	get := func(name string) *layerTotal {
		if lt := t[name]; lt != nil {
			return lt
		}
		return &layerTotal{}
	}
	secs := func(name string) float64 { return float64(get(name).ns) / 1e9 }
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	v := map[string]float64{}
	for _, s := range obs.SnapshotMetrics() {
		v[s.Name] = float64(s.Value)
	}

	v["gen.busy_s"] = secs("gen")
	v["gen.alloc_bytes_per_node"] = per(float64(get("gen").allocB), tr.counts["gen.nodes"])
	for _, io := range []string{"tgb_write", "tgb_read", "tg_write", "tg_read"} {
		v["dag."+io+"_s"] = secs("dag." + io)
	}
	pipelines := tr.counts["dag.read_nodes"] / 2
	v["dag.tgb_bytes_per_node"] = per(tr.counts["dag.tgb_bytes"], pipelines)
	v["dag.tg_bytes_per_node"] = per(tr.counts["dag.tg_bytes"], pipelines)
	v["dag.read_alloc_bytes_per_node"] = per(float64(get("dag.tgb_read").allocB+get("dag.tg_read").allocB), tr.counts["dag.read_nodes"])
	v["dag.levels_s"] = secs("dag.levels")
	for _, a := range algoSpans {
		v[a+".busy_s"] = secs(a)
	}
	for name, lt := range t {
		for _, class := range algoClasses {
			if strings.HasPrefix(name, "algo."+class+".") {
				v["algo."+class+".alloc_bytes"] += float64(lt.allocB)
			}
		}
	}
	v["algo.alap_order_s"] = secs("algo.alap_order")
	v["algo.alap_order_bytes"] = float64(get("algo.alap_order").allocB)
	v["sched.rebuild_ratio"] = per(v["sched.est.rebuild"], v["sched.est.query"])
	v["machine.hops"] = tr.counts["machine.hops"]
	v["sim.compile_s"] = secs("sim.compile")
	v["sim.mc_s"] = secs("sim.mc")
	v["sim.events_per_s"] = per(v["sim.events"], v["sim.mc_s"])
	v["ft.compile_s"] = secs("ft.compile")
	var ftAlloc float64
	for _, pol := range ft.PolicyNames() {
		v["ft.mc_s."+pol] = secs("ft.mc." + pol)
		ftAlloc += float64(get("ft.mc." + pol).allocB)
	}
	v["ft.alloc_bytes_per_trial"] = per(ftAlloc, tr.counts["ft.trials"])
	v["runtime.gc_cycles"] = float64(p.gcCycles)
	v["runtime.gc_pause_s"] = float64(p.gcPauseNS) / 1e9
	opNet, layers, self := tr.opAccounting()
	v["bench.self_s"] = float64(self) / 1e9
	v["bench.check_s"] = secs(spanCheck)
	v["bench.stage_gap"] = per(float64(opNet-layers), float64(opNet))
	v["trace.overhead_ratio"] = per(float64(p.opNS), float64(bare.opNS))
	return v
}
