package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the load generator's time source; tests substitute a manual one
// to inject stalls deterministically.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// op is one generated operation. rec is the recorder its outcome goes to,
// chosen before the op runs so a refused op is still attributed; run
// performs it under the given trace parent and reports success. due is when
// the op fell due (its start, in a closed loop), so a step inside it can be
// timed from there too.
type op struct {
	rec *recorder
	run func(parent int64, due time.Time) bool
}

// openLoop issues ops on a fixed schedule — op i is due at start + i×interval
// whether or not earlier ops have finished — and times each from its due
// time, so a stall in the system or in the generator itself is charged to
// every op it delays rather than hidden (coordinated omission).
type openLoop struct {
	clk      clock
	interval time.Duration
	// maxOut caps outstanding ops; an op falling due while the cap is full
	// is refused and recorded as failed.
	maxOut int64
	// spawn runs one op; nil means a new goroutine.
	spawn func(func())
	tr    *tracer
}

// run issues n ops starting at start, waits for all of them, and returns how
// late (ms) the generator dispatched each one.
func (g openLoop) run(start time.Time, n int, next func(i int) op) []float64 {
	var wg sync.WaitGroup
	var out atomic.Int64
	spawn := g.spawn
	if spawn == nil {
		spawn = func(f func()) { go f() }
	}
	late := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * g.interval)
		g.clk.SleepUntil(due)
		late = append(late, ms(g.clk.Now().Sub(due)))
		o := next(i)
		if out.Load() >= g.maxOut {
			o.rec.fail()
			continue
		}
		out.Add(1)
		wg.Add(1)
		i := i
		spawn(func() {
			defer wg.Done()
			defer out.Add(-1)
			id := g.tr.newID()
			ok := o.run(id, due)
			end := g.clk.Now()
			g.tr.record(id, 0, int64(i), "gen", "open-loop op", due, end)
			if ok {
				o.rec.ok(ms(end.Sub(due)))
			} else {
				o.rec.fail()
			}
		})
	}
	wg.Wait()
	return late
}

// closedLoop runs workers that each issue their next op as soon as the
// previous one returns, until the deadline, and returns the ops completed.
// Latency is timed from each op's start.
func closedLoop(clk clock, tr *tracer, workers int, until time.Time, next func(w, i int) op) int64 {
	var wg sync.WaitGroup
	var done atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; clk.Now().Before(until); i++ {
				o := next(w, i)
				start := clk.Now()
				id := tr.newID()
				ok := o.run(id, start)
				end := clk.Now()
				tr.record(id, 0, int64(w)<<32|int64(i), "gen", "closed-loop op", start, end)
				if ok {
					o.rec.ok(ms(end.Sub(start)))
				} else {
					o.rec.fail()
				}
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return done.Load()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
