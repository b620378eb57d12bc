package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// Test metrics are registered once per process; ResetMetrics between
// tests keeps them assertable.
var (
	testCounter = NewCounter("test.counter")
	testGauge   = NewGauge("test.gauge")
	testHist    = NewHistogram("test.hist", 10, 100, 1000)
)

func resetAll(t *testing.T) {
	t.Helper()
	ResetMetrics()
	EnableMetrics(false)
	SetTracer(nil)
	t.Cleanup(func() {
		ResetMetrics()
		EnableMetrics(false)
		SetTracer(nil)
	})
}

func TestCounterGatedOnEnable(t *testing.T) {
	resetAll(t)
	testCounter.Inc()
	testCounter.Add(5)
	if got := testCounter.Value(); got != 0 {
		t.Fatalf("disabled counter advanced: %d", got)
	}
	EnableMetrics(true)
	testCounter.Inc()
	testCounter.Add(5)
	if got := testCounter.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	EnableMetrics(false)
	testCounter.Inc()
	if got := testCounter.Value(); got != 6 {
		t.Fatalf("counter advanced after disable: %d", got)
	}
}

func TestGaugeHighWaterMark(t *testing.T) {
	resetAll(t)
	EnableMetrics(true)
	testGauge.Add(3)
	testGauge.Add(4)
	testGauge.Add(-5)
	if v, m := testGauge.Value(), testGauge.Max(); v != 2 || m != 7 {
		t.Fatalf("gauge = %d (max %d), want 2 (max 7)", v, m)
	}
	testGauge.Set(1)
	if v, m := testGauge.Value(), testGauge.Max(); v != 1 || m != 7 {
		t.Fatalf("after Set: gauge = %d (max %d), want 1 (max 7)", v, m)
	}
}

func TestHistogramBuckets(t *testing.T) {
	resetAll(t)
	EnableMetrics(true)
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		testHist.Observe(v)
	}
	bounds, counts := testHist.Buckets()
	wantBounds := []int64{10, 100, 1000}
	wantCounts := []int64{2, 2, 0, 1} // le10, le100, le1000, overflow
	for i := range wantBounds {
		if bounds[i] != wantBounds[i] {
			t.Fatalf("bounds = %v, want %v", bounds, wantBounds)
		}
	}
	for i := range wantCounts {
		if counts[i] != wantCounts[i] {
			t.Fatalf("counts = %v, want %v", counts, wantCounts)
		}
	}
	if n, s := testHist.Count(), testHist.Sum(); n != 5 || s != 5122 {
		t.Fatalf("count=%d sum=%d, want 5, 5122", n, s)
	}
}

func TestDuplicateMetricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	NewCounter("test.counter")
}

func TestWriteMetricsFormat(t *testing.T) {
	resetAll(t)
	EnableMetrics(true)
	testCounter.Add(7)
	testGauge.Set(2)
	testHist.Observe(50)
	var buf bytes.Buffer
	if err := WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"test.counter",
		"test.gauge",
		"2 (max 2)",
		"n=1 sum=50 le100=1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteMetrics output missing %q:\n%s", want, out)
		}
	}
}

func TestDisabledPathAllocs(t *testing.T) {
	resetAll(t)
	if n := testing.AllocsPerRun(1000, func() {
		testCounter.Inc()
		testCounter.Add(3)
		testGauge.Add(1)
		testHist.Observe(42)
		if tr := ActiveTracer(); tr != nil {
			t.Fatal("tracer unexpectedly active")
		}
	}); n != 0 {
		t.Fatalf("disabled instrumentation allocates %.1f/op, want 0", n)
	}
}

func TestTracerJSONL(t *testing.T) {
	resetAll(t)
	var buf bytes.Buffer
	tr := NewTracer(&buf, TraceJSONL)
	tr.SetInstance("genx", "rgnos-v40")
	tr.BeginRun("ETF", "BNP", 40, 4)
	if !tr.InRun() {
		t.Fatal("InRun false after BeginRun")
	}
	tr.Priority(7, 123, false)
	cands := append(tr.CandidateBuf(), Candidate{Proc: 0, EST: 5}, Candidate{Proc: 1, EST: 9})
	tr.Placement(7, 0, 5, 15, false, cands)
	tr.Placement(8, 1, 0, 4, true, nil) // no priority staged
	tr.EndRun()
	if tr.InRun() {
		t.Fatal("InRun true after EndRun")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	var run struct {
		Type, Exp, Instance, Alg, Class string
		ID, V, Procs                    int
	}
	if err := json.Unmarshal([]byte(lines[0]), &run); err != nil {
		t.Fatalf("run header not JSON: %v", err)
	}
	if run.Type != "run" || run.Exp != "genx" || run.Instance != "rgnos-v40" ||
		run.Alg != "ETF" || run.Class != "BNP" || run.V != 40 || run.Procs != 4 {
		t.Fatalf("run header = %+v", run)
	}
	var place struct {
		Type                    string
		Run, Step, Node, Proc   int
		Start, Finish, Priority int64
		Insertion               bool
		Cands                   []struct{ P, Est int64 }
	}
	if err := json.Unmarshal([]byte(lines[1]), &place); err != nil {
		t.Fatalf("place record not JSON: %v", err)
	}
	if place.Node != 7 || place.Proc != 0 || place.Start != 5 || place.Finish != 15 ||
		place.Priority != 123 || place.Insertion || len(place.Cands) != 2 {
		t.Fatalf("place record = %+v", place)
	}
	if !strings.Contains(lines[2], "\"insertion\":true") || strings.Contains(lines[2], "priority") {
		t.Fatalf("second place record wrong: %s", lines[2])
	}
}

func TestTracerChromeIsValidJSON(t *testing.T) {
	resetAll(t)
	var buf bytes.Buffer
	tr := NewTracer(&buf, TraceChrome)
	tr.SetInstance("genx", "rgnos-v40")
	tr.BeginRun("ETF", "BNP", 40, 2)
	tr.Priority(3, 99, false)
	tr.Placement(3, 1, 0, 8, false, append(tr.CandidateBuf(), Candidate{Proc: 0, EST: 2}))
	tr.EndRun()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v\n%s", err, buf.String())
	}
	// 1 process_name + 1 process_sort_index + 2*(thread_name +
	// thread_sort_index) + 1 placement = 7 events.
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("got %d events, want 7", len(doc.TraceEvents))
	}
	last := doc.TraceEvents[6]
	if last["ph"] != "X" || last["name"] != "n3" || last["dur"] != float64(8) {
		t.Fatalf("placement event = %v", last)
	}
	if got := doc.TraceEvents[0]["args"].(map[string]any)["name"]; got != "genx: ETF rgnos-v40" {
		t.Fatalf("process_name = %q", got)
	}
}

func TestTracerEmptyChromeCloses(t *testing.T) {
	resetAll(t)
	var buf bytes.Buffer
	tr := NewTracer(&buf, TraceChrome)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty chrome trace not valid JSON: %v\n%s", err, buf.String())
	}
}

func TestTraceFormatForPath(t *testing.T) {
	if TraceFormatForPath("out.jsonl") != TraceJSONL {
		t.Fatal(".jsonl should be JSONL")
	}
	if TraceFormatForPath("out.json") != TraceChrome {
		t.Fatal(".json should be Chrome")
	}
}

func TestParsePeakRSS(t *testing.T) {
	doc := []byte("Name:\tdagbench\nVmPeak:\t  123 kB\nVmHWM:\t  4567 kB\nVmRSS:\t 1 kB\n")
	if got := parsePeakRSS(doc); got != 4567 {
		t.Fatalf("parsePeakRSS = %d, want 4567", got)
	}
	if got := parsePeakRSS([]byte("Name:\tx\n")); got != -1 {
		t.Fatalf("missing VmHWM: got %d, want -1", got)
	}
	if got := parsePeakRSS([]byte("VmHWM:\tnope kB\n")); got != -1 {
		t.Fatalf("malformed VmHWM: got %d, want -1", got)
	}
	if got := parsePeakRSS([]byte("VmHWM:\n")); got != -1 {
		t.Fatalf("empty VmHWM: got %d, want -1", got)
	}
}

func TestSamplePeakRSSPublishesGauge(t *testing.T) {
	resetAll(t)
	EnableMetrics(true)
	kb := SamplePeakRSS()
	if kb <= 0 {
		t.Skip("/proc/self/status unavailable")
	}
	if got := peakRSSGauge.Value(); got != kb {
		t.Fatalf("gauge = %d, want %d", got, kb)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := dir + "/g.tg"
	if err := os.WriteFile(in, []byte("v 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewManifest("dagbench", []string{"-exp", "genx"})
	m.SetConfig("seed", "42")
	if err := m.AddInput(in); err != nil {
		t.Fatal(err)
	}
	hw := NewHashWriter(&bytes.Buffer{})
	if _, err := hw.Write([]byte("table\n")); err != nil {
		t.Fatal(err)
	}
	m.SetOutput(hw)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if got.Tool != "dagbench" || got.Config["seed"] != "42" || len(got.Inputs) != 1 {
		t.Fatalf("manifest = %+v", got)
	}
	if got.Inputs[0].Bytes != 4 || len(got.Inputs[0].SHA256) != 64 {
		t.Fatalf("input digest = %+v", got.Inputs[0])
	}
	if got.OutputLen != 6 || len(got.OutputSHA) != 64 {
		t.Fatalf("output digest = %q len %d", got.OutputSHA, got.OutputLen)
	}
	if got.GoVersion == "" || got.Version == "" {
		t.Fatalf("build stamps missing: %+v", got)
	}
	if err := m.AddInput(dir + "/missing.tg"); err == nil {
		t.Fatal("AddInput of missing file did not error")
	}
}

func TestVersionStringHasStamp(t *testing.T) {
	if !strings.HasPrefix(VersionString(), Version) {
		t.Fatalf("VersionString %q does not start with Version %q", VersionString(), Version)
	}
}
