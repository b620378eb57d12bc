package bnp

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenFile holds SHA-256 digests of Schedule.String() for the six BNP
// algorithms through ScheduleHet. The HLFET, MCP, ETF and DLS digests
// were recorded from the hand-written kernels these algorithms had
// before they became component combos of internal/algo/param. One line
// per case: "<key> <hex digest>".
const goldenFile = "testdata/golden_schedules.txt"

// goldenSpeeds is the non-uniform speed vector of the heterogeneous
// cases, truncated to the processor count.
var goldenSpeeds = []float64{1, 0.5, 2, 1.5, 0.75, 1.25, 3, 1}

// goldenKey names one case of the golden grid.
func goldenKey(alg, fam string, seed int64, ccr float64, procs int, het bool) string {
	machine := "hom"
	if het {
		machine = "het"
	}
	return fmt.Sprintf("%s/%s/seed=%d/ccr=%g/procs=%d/%s", alg, fam, seed, ccr, procs, machine)
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

// TestScheduleHetMatchesGoldenDigests pins every homogeneous and
// heterogeneous schedule of the six BNP algorithms over every
// registered generator family × seeds × CCRs × processor counts to the
// recorded digests. A missing or differing case prints the line the
// golden file would need.
func TestScheduleHetMatchesGoldenDigests(t *testing.T) {
	golden := readGolden(t)
	for _, seed := range []int64{1, 2, 3} {
		for _, ccr := range []float64{0.5, 2.0} {
			graphs := equivalenceGraphs(t, seed, ccr)
			for fam, g := range graphs {
				for _, procs := range []int{2, 8} {
					for _, het := range []bool{false, true} {
						var speeds []float64
						if het {
							speeds = goldenSpeeds[:procs]
						}
						for _, alg := range []string{"HLFET", "MCP", "ETF", "DLS", "ISH", "LAST"} {
							s, err := ScheduleHet(alg, g, procs, speeds)
							if err != nil {
								t.Fatalf("%s on %s: %v", alg, fam, err)
							}
							sum := sha256.Sum256([]byte(s.String()))
							s.Release()
							key := goldenKey(alg, fam, seed, ccr, procs, het)
							got := hex.EncodeToString(sum[:])
							if want, ok := golden[key]; !ok {
								t.Errorf("no golden digest: %s %s", key, got)
							} else if got != want {
								t.Errorf("golden digest mismatch: %s %s (want %s)", key, got, want)
							}
						}
					}
				}
			}
		}
	}
}
