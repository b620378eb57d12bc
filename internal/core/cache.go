package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/gen"
	"repro/internal/optimal"
)

// SuiteCache shares generated benchmark suites — and the expensive
// RGBOS branch-and-bound optima — across experiments. Entries are keyed
// by (seed, scale), so Tables 2 and 3 solve each RGBOS instance to
// optimality exactly once, Tables 4 and 5 generate the RGPOS suite
// once, and Table 6, Figures 2-3, and the UNCCS extension share one
// RGNOS suite. Suites are deterministic in (seed, scale), which keeps
// cached runs byte-identical to cold ones.
//
// A nil *SuiteCache in Config falls back to a process-wide cache; use
// NewSuiteCache for an isolated one. Entries are retained for the
// cache's lifetime, so a sweep over many distinct seeds should supply
// its own short-lived cache rather than rely on the process-wide
// fallback, which is never evicted.
type SuiteCache struct {
	mu     sync.Mutex
	rgbos  map[suiteKey]map[float64][]degradationInstance
	rgpos  map[suiteKey]map[float64][]degradationInstance
	rgnos  map[suiteKey]map[int][]gen.NamedGraph
	genx   map[suiteKey]map[string][]gen.NamedGraph
	comp   map[suiteKey]map[string][]gen.NamedGraph
	robust map[suiteKey][]robustFamily
}

type suiteKey struct {
	seed  int64
	scale Scale
}

// NewSuiteCache returns an empty suite cache.
func NewSuiteCache() *SuiteCache {
	return &SuiteCache{
		rgbos:  map[suiteKey]map[float64][]degradationInstance{},
		rgpos:  map[suiteKey]map[float64][]degradationInstance{},
		rgnos:  map[suiteKey]map[int][]gen.NamedGraph{},
		genx:   map[suiteKey]map[string][]gen.NamedGraph{},
		comp:   map[suiteKey]map[string][]gen.NamedGraph{},
		robust: map[suiteKey][]robustFamily{},
	}
}

// processCache backs Configs that do not carry their own cache.
var processCache = NewSuiteCache()

// rgbosSolves counts branch-and-bound solves, so tests can assert that
// optima are computed exactly once per suite.
var rgbosSolves atomic.Int64

// suiteCacheFor resolves cfg's cache, defaulting to the process-wide one.
func suiteCacheFor(cfg Config) *SuiteCache {
	if cfg.Cache != nil {
		return cfg.Cache
	}
	return processCache
}

// cached returns m's entry for cfg's (seed, scale), building and
// storing it on the first request. The cache lock is held across build,
// so concurrent requests for one suite build it once. Failed builds are
// not cached.
func cached[V any](c *SuiteCache, m map[suiteKey]V, cfg Config, build func() (V, error)) (V, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := suiteKey{cfg.Seed, cfg.Scale}
	if got, ok := m[k]; ok {
		cacheHits.Inc()
		return got, nil
	}
	cacheMisses.Inc()
	v, err := build()
	if err != nil {
		return v, err
	}
	m[k] = v
	return v, nil
}

// rgbosInstances returns the RGBOS suite with branch-and-bound optima
// attached (the role the paper's parallel A* played), computing it on
// the first request for (seed, scale). Failed computations are not
// cached.
func (c *SuiteCache) rgbosInstances(cfg Config) (map[float64][]degradationInstance, error) {
	return cached(c, c.rgbos, cfg, func() (map[float64][]degradationInstance, error) { return computeRGBOS(cfg) })
}

// computeRGBOS generates the RGBOS graphs serially (the generator's rng
// is sequential) and then solves their optima as parallel cells.
func computeRGBOS(cfg Config) (map[float64][]degradationInstance, error) {
	type job struct {
		ccr float64
		ng  gen.NamedGraph
	}
	var jobs []job
	for _, ccr := range gen.PaperCCRs {
		rc := gen.DefaultRGBOSConfig(ccr, cfg.Seed)
		rc.MaxNodes = rgbosMaxNodes(cfg.Scale)
		for _, ng := range gen.RGBOS(rc) {
			jobs = append(jobs, job{ccr, ng})
		}
	}
	var p plan[degradationInstance]
	for _, j := range jobs {
		p.add(func() (degradationInstance, error) {
			rgbosSolves.Add(1)
			res, err := optimal.Schedule(j.ng.G, j.ng.G.NumNodes(), optimal.Options{})
			if err != nil {
				return degradationInstance{}, fmt.Errorf("rgbos optimum for %s: %w", j.ng.Name, err)
			}
			return degradationInstance{
				label:   fmt.Sprintf("v=%d", j.ng.G.NumNodes()),
				g:       j.ng.G,
				optimal: res.Length,
				closed:  res.Closed,
			}, nil
		})
	}
	results, err := p.run(cfg)
	if err != nil {
		return nil, err
	}
	out := map[float64][]degradationInstance{}
	for i, j := range jobs {
		out[j.ccr] = append(out[j.ccr], results[i])
	}
	return out, nil
}

// rgposInstances returns the RGPOS suite, whose optima are known by
// construction, generating it on the first request for (seed, scale).
func (c *SuiteCache) rgposInstances(cfg Config) map[float64][]degradationInstance {
	out, _ := cached(c, c.rgpos, cfg, func() (map[float64][]degradationInstance, error) {
		return computeRGPOS(cfg), nil
	})
	return out
}

func computeRGPOS(cfg Config) map[float64][]degradationInstance {
	out := map[float64][]degradationInstance{}
	lo, hi, step := rgposSizes(cfg.Scale)
	for _, ccr := range gen.PaperCCRs {
		rc := gen.DefaultRGPOSConfig(ccr, cfg.Seed)
		rc.MinNodes, rc.MaxNodes, rc.Step = lo, hi, step
		for _, inst := range gen.RGPOS(rc) {
			out[ccr] = append(out[ccr], degradationInstance{
				label:   fmt.Sprintf("v=%d", inst.G.NumNodes()),
				g:       inst.G,
				optimal: inst.OptimalLength,
				closed:  true,
			})
		}
	}
	return out
}

// genxSuite returns the cross-generator study's instances grouped by
// family name, generating them on the first request for (seed, scale).
// Every registered random family contributes the same matched grid of
// (size, CCR, instance) points; per-instance seeds are mixed from the
// run seed and the point coordinates, so the suite is deterministic and
// no two points share a generator stream.
func (c *SuiteCache) genxSuite(cfg Config) (map[string][]gen.NamedGraph, error) {
	return cached(c, c.genx, cfg, func() (map[string][]gen.NamedGraph, error) {
		sizes, ccrs, instances := genxPoints(cfg.Scale)
		return matchedFamilySuite("genx", cfg.Seed, sizes, ccrs, instances)
	})
}

// componentsSuite returns the component-attribution study's instances
// grouped by family name, generating them on the first request for
// (seed, scale). It is the same matched-grid construction as the genx
// suite on the grid of componentsPoints.
func (c *SuiteCache) componentsSuite(cfg Config) (map[string][]gen.NamedGraph, error) {
	return cached(c, c.comp, cfg, func() (map[string][]gen.NamedGraph, error) {
		sizes, ccrs, instances := componentsPoints(cfg.Scale)
		return matchedFamilySuite("components", cfg.Seed, sizes, ccrs, instances)
	})
}

// matchedFamilySuite builds one matched (size, CCR, instance) grid of
// instances per registered random family. Per-instance seeds are mixed
// from the run seed and the point coordinates, so the suite is
// deterministic and no two points share a generator stream.
func matchedFamilySuite(exp string, runSeed int64, sizes []int, ccrs []float64, instances int) (map[string][]gen.NamedGraph, error) {
	byFam := map[string][]gen.NamedGraph{}
	for fi, f := range gen.RandomFamilies() {
		for _, v := range sizes {
			for ci, ccr := range ccrs {
				for i := 0; i < instances; i++ {
					// Distinct large-prime strides keep the mixed seeds
					// unique across the four grid coordinates.
					seed := runSeed +
						int64(fi+1)*1_000_003 +
						int64(v)*7_919 +
						int64(ci+1)*104_729 +
						int64(i+1)*15_485_863
					g, err := gen.Generate(f.Name, seed, gen.Params{
						"v":   fmt.Sprint(v),
						"ccr": fmt.Sprintf("%g", ccr),
					})
					if err != nil {
						return nil, fmt.Errorf("%s: %s v=%d ccr=%g: %w", exp, f.Name, v, ccr, err)
					}
					byFam[f.Name] = append(byFam[f.Name], gen.NamedGraph{
						Name:   fmt.Sprintf("%s-v%d-ccr%g-i%d", f.Name, v, ccr, i),
						Source: fmt.Sprintf("%s seed=%d", f.Source, seed),
						G:      g,
					})
				}
			}
		}
	}
	return byFam, nil
}

// robustSuite returns the execution-robustness study's instances, one
// entry per registered generator family in name order, generating them
// on the first request for (seed, scale). Random (v, ccr) families
// contribute a matched grid of points; every other family contributes
// one representative instance with its default parameters, so the
// study exercises the whole registry. Per-instance seeds are mixed
// from the run seed and the point coordinates, as in the genx suite.
func (c *SuiteCache) robustSuite(cfg Config) ([]robustFamily, error) {
	return cached(c, c.robust, cfg, func() ([]robustFamily, error) { return computeRobust(cfg) })
}

func computeRobust(cfg Config) ([]robustFamily, error) {
	sizes, ccrs, instances := robustPoints(cfg.Scale)
	var fams []robustFamily
	for fi, f := range gen.Generators() {
		fam := robustFamily{name: f.Name}
		if f.Random {
			for _, v := range sizes {
				for ci, ccr := range ccrs {
					for i := 0; i < instances; i++ {
						seed := cfg.Seed +
							int64(fi+1)*1_000_003 +
							int64(v)*7_919 +
							int64(ci+1)*104_729 +
							int64(i+1)*15_485_863
						g, err := gen.Generate(f.Name, seed, gen.Params{
							"v":   fmt.Sprint(v),
							"ccr": fmt.Sprintf("%g", ccr),
						})
						if err != nil {
							return nil, fmt.Errorf("robust: %s v=%d ccr=%g: %w", f.Name, v, ccr, err)
						}
						fam.graphs = append(fam.graphs, gen.NamedGraph{
							Name: fmt.Sprintf("%s-v%d-ccr%g-i%d", f.Name, v, ccr, i),
							G:    g,
						})
					}
				}
			}
		} else {
			g, err := gen.Generate(f.Name, cfg.Seed, robustFixedParams[f.Name])
			if err != nil {
				return nil, fmt.Errorf("robust: %s: %w", f.Name, err)
			}
			fam.graphs = append(fam.graphs, gen.NamedGraph{Name: f.Name + "-default", G: g})
		}
		fams = append(fams, fam)
	}
	return fams, nil
}

// robustFixedParams overrides defaults for non-random families whose
// default parameters do not yield a graph (psg requires a name).
var robustFixedParams = map[string]gen.Params{
	"psg": {"name": "kwok-ahmad-9"},
}

// rgnosSuite returns the RGNOS graphs grouped by size, generating them
// on the first request for (seed, scale).
func (c *SuiteCache) rgnosSuite(cfg Config) map[int][]gen.NamedGraph {
	out, _ := cached(c, c.rgnos, cfg, func() (map[int][]gen.NamedGraph, error) { return computeRGNOS(cfg), nil })
	return out
}

func computeRGNOS(cfg Config) map[int][]gen.NamedGraph {
	rc := gen.RGNOSConfig{
		MinNodes:    50,
		MaxNodes:    500,
		Step:        50,
		CCRs:        rgnosCCRs(cfg.Scale),
		Parallelism: rgnosParallelism(cfg.Scale),
		Seed:        cfg.Seed,
	}
	sizes := rgnosSizes(cfg.Scale)
	rc.MaxNodes = sizes[len(sizes)-1]
	bySize := map[int][]gen.NamedGraph{}
	for _, ng := range gen.RGNOS(rc) {
		bySize[ng.G.NumNodes()] = append(bySize[ng.G.NumNodes()], ng)
	}
	return bySize
}
