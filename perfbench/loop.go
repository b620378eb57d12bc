package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
)

const (
	spanOp    = "op"
	spanCheck = "bench.check"
)

// env is what an op sees: the tracer (nil in untraced runs) and the
// accounting that keeps check time and check allocations out of op
// measurements.
type env struct {
	tr   *tracer
	heap heapCounter

	opCheckNS int64 // check time inside the current op
	checkErr  error // first check failure inside the current op

	checkNS        int64 // all check time of the phase
	checkB, checkN uint64
}

// call runs fn as one call into a layer of the program, recorded as a
// span in traced runs.
func (e *env) call(name string, fn func() error) error {
	if e.tr == nil {
		return fn()
	}
	i := e.tr.begin(name)
	err := safely(fn)
	e.tr.end(i)
	return err
}

// count adds to a traced-run counter.
func (e *env) count(name string, v float64) {
	if e.tr != nil {
		e.tr.counts[name] += v
	}
}

// check runs a correctness check. Its time, its allocations and the
// program counters it would bump are kept out of the op that runs it;
// a failure marks that op failed.
func (e *env) check(fn func() error) {
	on := obs.MetricsEnabled()
	obs.EnableMetrics(false)
	b0, n0 := e.heap.read()
	t0 := time.Now()
	var i int32
	if e.tr != nil {
		i = e.tr.begin(spanCheck)
	}
	err := safely(fn)
	if e.tr != nil {
		e.tr.end(i)
	}
	d := int64(time.Since(t0))
	b1, n1 := e.heap.read()
	obs.EnableMetrics(on)
	e.opCheckNS += d
	e.checkNS += d
	e.checkB += b1 - b0
	e.checkN += n1 - n0
	if err != nil && e.checkErr == nil {
		e.checkErr = err
	}
}

// safely turns a panic in fn into an error, so a panicking op counts
// as failed instead of ending the run.
func safely(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// phase is the record of one closed-loop timed phase.
type phase struct {
	lat            []int64 // per-op latency in ns, checks excluded
	opNS           int64
	nodes          int64
	failed         int
	failures       []string
	allocB, allocN uint64 // heap allocated by ops, checks excluded
	checkNS        int64
	wall           time.Duration
	gcCycles       uint32
	gcPauseNS      uint64
}

type result struct {
	o   *op
	val int64
	err error
}

// runPhase drives the closed loop: one goroutine issues the cycle's
// ops in order, each starting when the previous one has returned.
// With maxOps = 0 it runs whole cycles, at least one, and stops at the
// cycle end nearest to seconds, so every run measures the same op mix;
// otherwise it runs exactly maxOps ops. Results are checked in batches
// at the end of each cycle, outside op timing.
func runPhase(c *cycle, e *env, seconds float64, maxOps int) *phase {
	runtime.GC()
	p := &phase{lat: make([]int64, 0, 1<<14)}
	pending := make([]result, 0, len(c.ops))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b0, n0 := e.heap.read()
	e.checkNS, e.checkB, e.checkN = 0, 0, 0
	start := time.Now()
	deadline := time.Duration(seconds * float64(time.Second))
	cycleStart := start
	for i := 0; ; i++ {
		o := c.ops[i%len(c.ops)]
		e.opCheckNS, e.checkErr = 0, nil
		var si int32
		if e.tr != nil {
			e.tr.op = int32(i)
			si = e.tr.begin(spanOp)
		}
		t0 := time.Now()
		var val int64
		err := safely(func() (err error) { val, err = o.run(e, !o.done); return err })
		lat := int64(time.Since(t0)) - e.opCheckNS
		if e.tr != nil {
			e.tr.end(si)
			e.tr.op = -1
		}
		if err == nil {
			err = e.checkErr
		}
		p.lat = append(p.lat, lat)
		p.opNS += lat
		p.nodes += o.nodes
		pending = append(pending, result{o, val, err})
		cycleEnd := (i+1)%len(c.ops) == 0
		if cycleEnd || i+1 == maxOps {
			e.check(func() error { p.checkBatch(pending); return nil })
			pending = pending[:0]
		}
		if i+1 == maxOps {
			break
		}
		if maxOps == 0 && cycleEnd {
			now := time.Now()
			if now.Sub(start)+now.Sub(cycleStart)/2 >= deadline {
				break
			}
			cycleStart = now
		}
	}
	p.wall = time.Since(start)
	b1, n1 := e.heap.read()
	runtime.ReadMemStats(&ms1)
	p.allocB, p.allocN = b1-b0-e.checkB, n1-n0-e.checkN
	p.checkNS = e.checkNS
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	return p
}

// checkBatch checks the results of a batch against the expected
// values. An op without an expected value takes its first successful
// result, whose deep checks ran inline.
func (p *phase) checkBatch(batch []result) {
	for _, r := range batch {
		o, err := r.o, r.err
		switch {
		case err != nil:
		case o.err != nil:
			err = o.err
		case !o.done:
			o.want, o.done = r.val, true
		case r.val != o.want:
			err = fmt.Errorf("result %d, expected %d", r.val, o.want)
		}
		if err != nil {
			p.failed++
			if len(p.failures) < 5 {
				p.failures = append(p.failures, fmt.Sprintf("%s: %v", o.name, err))
			}
		}
	}
}

// warmUp computes and deep-checks the expected value of every op that
// has one, before any timing. A failed check fails every later run of
// the op.
func (c *cycle) warmUp() {
	t0 := time.Now()
	defer func() {
		fmt.Printf("warm-up: expected outputs computed and checked in %.3f s\n", time.Since(t0).Seconds())
	}()
	for _, o := range c.ops {
		if o.expect != nil {
			err := safely(func() (err error) { o.want, err = o.expect(); return err })
			o.done, o.err = true, err
		}
	}
}

// digest hashes every op's checked output value in cycle order; it is
// empty until each op has completed once.
func (c *cycle) digest() string {
	h := sha256.New()
	for _, o := range c.ops {
		if !o.done {
			return ""
		}
		fmt.Fprintf(h, "%s=%d\n", o.name, o.want)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
