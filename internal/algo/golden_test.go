package algo_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/algo/apn"
	"repro/internal/algo/unc"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/machine"
)

// goldenFile holds SHA-256 digests of Schedule.String() for the UNC
// algorithms through unc.ScheduleHet and the APN algorithms through
// apn.ScheduleHet on Hypercube(3). One line per case: "<key> <hex digest>".
const goldenFile = "testdata/golden_schedules.txt"

// goldenSpeeds is the non-uniform speed pattern of the heterogeneous
// cases: processor p runs at goldenSpeeds[p%8].
var goldenSpeeds = []float64{1, 0.5, 2, 1.5, 0.75, 1.25, 3, 1}

func speedsFor(procs int) []float64 {
	out := make([]float64, procs)
	for p := range out {
		out[p] = goldenSpeeds[p%len(goldenSpeeds)]
	}
	return out
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("open golden digests: %v", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		out[key] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read golden digests: %v", err)
	}
	return out
}

// goldenGraphs returns one graph per registered generator family, the
// random families at 50 nodes and the given CCR.
func goldenGraphs(t *testing.T, seed int64, ccr float64) map[string]*dag.Graph {
	t.Helper()
	out := map[string]*dag.Graph{}
	for _, fam := range gen.Generators() {
		params := gen.Params{}
		if fam.Random {
			params["v"] = "50"
			params["ccr"] = fmt.Sprint(ccr)
		}
		if fam.Name == "psg" {
			params["name"] = "wu-gajski-18"
		}
		g, err := gen.Generate(fam.Name, seed, params)
		if err != nil {
			t.Fatalf("generate %s: %v", fam.Name, err)
		}
		out[fam.Name] = g
	}
	return out
}

// TestScheduleHetMatchesGoldenDigests pins every homogeneous and
// heterogeneous UNC and APN schedule over every registered generator
// family × seeds × CCRs to the recorded digests. UNC speeds cover one
// processor per node. A missing or differing case prints the line the
// golden file would need.
func TestScheduleHetMatchesGoldenDigests(t *testing.T) {
	golden := readGolden(t)
	topo := machine.Hypercube(3)
	check := func(key string, s fmt.Stringer) {
		sum := sha256.Sum256([]byte(s.String()))
		got := hex.EncodeToString(sum[:])
		if want, ok := golden[key]; !ok {
			t.Errorf("no golden digest: %s %s", key, got)
		} else if got != want {
			t.Errorf("golden digest mismatch: %s %s (want %s)", key, got, want)
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, ccr := range []float64{0.5, 2.0} {
			for fam, g := range goldenGraphs(t, seed, ccr) {
				for _, het := range []string{"hom", "het"} {
					var uncSpeeds, apnSpeeds []float64
					if het == "het" {
						uncSpeeds = speedsFor(max(g.NumNodes(), 1))
						apnSpeeds = speedsFor(topo.NumProcs())
					}
					for _, alg := range []string{"EZ", "LC", "DSC", "MD", "DCP"} {
						s, err := unc.ScheduleHet(alg, g, uncSpeeds)
						if err != nil {
							t.Fatalf("UNC %s on %s: %v", alg, fam, err)
						}
						check(fmt.Sprintf("UNC/%s/%s/seed=%d/ccr=%g/%s", alg, fam, seed, ccr, het), s)
						s.Release()
					}
					for _, alg := range []string{"MH", "DLS", "BU", "BSA"} {
						s, err := apn.ScheduleHet(alg, g, topo, apnSpeeds)
						if err != nil {
							t.Fatalf("APN %s on %s: %v", alg, fam, err)
						}
						check(fmt.Sprintf("APN/%s/%s/seed=%d/ccr=%g/hypercube3/%s", alg, fam, seed, ccr, het), s)
					}
				}
			}
		}
	}
}
