package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestQuantileCountsFailuresAsInfinite(t *testing.T) {
	r := &recorder{}
	for i := 1; i <= 95; i++ {
		r.ok(float64(i))
	}
	for i := 0; i < 5; i++ {
		r.fail()
	}
	if a, f := r.counts(); a != 100 || f != 5 {
		t.Fatalf("counts = %d attempted, %d failed; want 100, 5", a, f)
	}
	if got := r.quantile(0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := r.quantile(0.95); got != 95 {
		t.Errorf("p95 = %v, want 95 (the last success)", got)
	}
	// Five failures out of 100 sit above p95: p96 and up must be infinite,
	// not the slowest success.
	for _, q := range []float64{0.96, 0.99, 1} {
		if got := r.quantile(q); !math.IsInf(got, 1) {
			t.Errorf("p%v = %v, want +Inf", q*100, got)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.01: 1, 0.2: 1, 0.21: 2, 0.5: 3, 0.8: 4, 0.99: 5, 1: 5} {
		if got := quantile(append([]float64(nil), xs...), q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestRoundsReduceToMedians(t *testing.T) {
	// One round slow in every figure moves none of the medians.
	h := medianHeadline([]headline{{4, 6, 200, 400}, {9, 30, 50, 100}, {3, 5, 210, 420}})
	if h != (headline{4, 6, 200, 400}) {
		t.Errorf("median headline = %+v, want {4 6 200 400}", h)
	}
	// A round's failures stay failures when folded into the run's table.
	all, round := &recorder{}, &recorder{}
	all.ok(1)
	round.ok(2)
	round.fail()
	all.absorb(round)
	if a, f := all.counts(); a != 3 || f != 1 || all.succeeded() != 2 {
		t.Errorf("absorbed: %d attempted, %d failed, %d succeeded; want 3, 1, 2", a, f, all.succeeded())
	}
	if got := all.quantile(1); !math.IsInf(got, 1) {
		t.Errorf("max after absorbing a failure = %v, want +Inf", got)
	}
}

func TestCounterDeltasPerOp(t *testing.T) {
	before := counters{"frames_in": 100, "trust_served": 30, "gone": 7}
	after := counters{"frames_in": 250, "trust_served": 60, "new": 4}
	d := delta(before, after)
	want := counters{"frames_in": 150, "trust_served": 30, "new": 4}
	if len(d) != len(want) {
		t.Fatalf("delta = %v, want %v", d, want)
	}
	for k, v := range want {
		if d[k] != v {
			t.Errorf("delta[%s] = %d, want %d", k, d[k], v)
		}
	}
	if got := perOp(d["trust_served"], 10); got != 3 {
		t.Errorf("trust_served per op = %v, want 3", got)
	}
	if got := perOp(d["frames_in"], 0); got != 0 {
		t.Errorf("per op over zero ops = %v, want 0", got)
	}
	sum := counters{}
	sum.add(counters{"a": 1, "b": 2})
	sum.add(counters{"a": 10})
	if sum["a"] != 11 || sum["b"] != 2 {
		t.Errorf("add = %v, want a=11 b=2", sum)
	}
	if got := frac(1, 4); got != 0.25 {
		t.Errorf("frac = %v", got)
	}
}

// manualClock advances only when told: SleepUntil jumps to the target, plus
// any stall injected for that moment.
type manualClock struct {
	now   time.Time
	stall map[time.Time]time.Duration
}

func (c *manualClock) Now() time.Time { return c.now }

func (c *manualClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
	c.now = c.now.Add(c.stall[t])
}

func TestOpenLoopTimesFromDueUnderGeneratorStall(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &manualClock{now: start, stall: map[time.Time]time.Duration{
		// The generator stalls 50ms when op 3 falls due.
		start.Add(3 * 10 * time.Millisecond): 50 * time.Millisecond,
	}}
	rec := &recorder{}
	g := openLoop{clk: clk, interval: 10 * time.Millisecond, maxOut: 8, spawn: func(f func()) { f() }}
	late := g.run(start, 10, func(i int) op {
		return op{rec: rec, run: func(int64, time.Time) bool {
			clk.now = clk.now.Add(time.Millisecond) // 1ms of service
			return true
		}}
	})
	// Op 3 is dispatched 50ms late; ops 4..7, due while the generator was
	// stalled, are dispatched as soon as it resumes, each 1ms of service
	// after the previous: their lateness is what the stall cost them.
	wantLate := []float64{0, 0, 0, 50, 41, 32, 23, 14, 5, 0}
	wantLat := []float64{1, 1, 1, 51, 42, 33, 24, 15, 6, 1}
	for i := range wantLate {
		if math.Abs(late[i]-wantLate[i]) > 1e-9 {
			t.Errorf("op %d late %vms, want %v", i, late[i], wantLate[i])
		}
		if math.Abs(rec.samples[i]-wantLat[i]) > 1e-9 {
			t.Errorf("op %d latency %vms from due, want %v", i, rec.samples[i], wantLat[i])
		}
	}
	// Timed from send instead of due, every op would read 1ms and the
	// stall would vanish from p90.
	if got := rec.quantile(0.9); got != 42 {
		t.Errorf("p90 = %v, want 42", got)
	}
}

func TestOpenLoopRefusesBeyondOutstandingCap(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &manualClock{now: start}
	rec := &recorder{}
	var held []func()
	g := openLoop{clk: clk, interval: time.Millisecond, maxOut: 2, spawn: func(f func()) { held = append(held, f) }}
	done := make(chan []float64)
	go func() {
		done <- g.run(start, 5, func(int) op { return op{rec: rec, run: func(int64, time.Time) bool { return true }} })
	}()
	// run waits for its spawned ops; release them once all five are due.
	for {
		time.Sleep(time.Millisecond)
		rec.mu.Lock()
		refused := rec.failed
		rec.mu.Unlock()
		if refused == 3 {
			break
		}
	}
	for _, f := range held {
		f()
	}
	<-done
	if a, f := rec.counts(); a != 5 || f != 3 {
		t.Fatalf("attempted %d failed %d; want 5 attempted, 3 refused", a, f)
	}
	if got := rec.quantile(0.5); !math.IsInf(got, 1) {
		t.Errorf("p50 with 3 of 5 refused = %v, want +Inf", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "gen", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "node", Start: 10, End: 50},
		{ID: 3, Parent: 1, Layer: "node", Start: 40, End: 70},  // overlaps 2
		{ID: 4, Parent: 1, Layer: "node", Start: 90, End: 130}, // runs past its parent
	}
	self := selfTime(spans)
	// gen covers 0..100; children cover 10..70 and 90..100 of it.
	if got := self["gen"]; got != 30 {
		t.Errorf("gen self = %v, want 30ns", got)
	}
	if got := self["node"]; got != 40+30+40 {
		t.Errorf("node self = %v, want 110ns", got)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	called := false
	if !tr.call(0, 0, "node", "x", func() bool { called = true; return true }) || !called {
		t.Fatal("nil tracer must still run the call")
	}
	tr.record(0, 0, 0, "node", "x", time.Now(), time.Now())
	if tr.newID() != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded something")
	}
}

// TestSpecMatchesBenchmarkJSON holds BENCHMARK.json and the metrics the
// program emits in step.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}

func TestConformZeroesUnreachedLayersAndRejectsUnknown(t *testing.T) {
	specs := []metricSpec{{"a", "ms", "lower"}, {"b", "count", "lower"}}
	out, problems := conform(specs, map[string]metric{"a": {1.5, "ms"}}, true)
	if len(problems) != 0 || out["a"].Value != 1.5 || out["b"].Value != 0 || out["b"].Unit != "count" {
		t.Errorf("conform = %v %v", out, problems)
	}
	if _, problems := conform(specs, map[string]metric{"a": {1, "ms"}}, false); len(problems) != 1 {
		t.Errorf("a missing end-to-end metric must be reported, got %v", problems)
	}
	if _, problems := conform(specs, map[string]metric{"a": {1, "ms"}, "b": {1, "count"}, "c": {1, "x"}}, true); len(problems) != 1 {
		t.Errorf("an undeclared metric must be reported, got %v", problems)
	}
}
