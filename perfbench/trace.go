package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hirep/internal/resilience"
)

// span is one timed call the benchmark made into a layer. Spans of one
// generated op share Op; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no guard.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under a pre-allocated id (0 allocates one).
func (t *tracer) record(id, parent, op int64, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call times fn as a child span of parent and returns what fn returned.
func (t *tracer) call(parent, op int64, layer, name string, fn func() bool) bool {
	if t == nil {
		return fn()
	}
	start := time.Now()
	ok := fn()
	t.record(0, parent, op, layer, name, start, time.Now())
	return ok
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime returns, per layer, the summed span durations minus the part of
// each span's interval that its own children cover.
func selfTime(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// spanLayers are the layers whose self time a traced run reports: the ones
// the benchmark's own ops and schedules call into, not the replays.
var spanLayers = []string{"gen", "node", "audit", "core", "voting"}

// selfLayers adds each span layer's self time per op to m.
func selfLayers(tr *tracer, ops int64, m map[string]metric) {
	self := selfTime(tr.snapshot())
	for _, layer := range spanLayers {
		if d, ok := self[layer]; ok {
			m["self."+layer+"_us_per_op"] = metric{float64(d.Microseconds()) / float64(max(ops, 1)), "us"}
		}
	}
}

// wireCounters tallies traffic on every connection a node dials. Inbound
// (accepted) connections are not wrapped, so writes count the client side
// of each exchange: requests and one-way onion forwards.
type wireCounters struct {
	dials, writes, bytesOut, writeNs atomic.Int64
}

func (c *wireCounters) snapshot() counters {
	return counters{
		"dials": c.dials.Load(), "writes": c.writes.Load(),
		"bytes_out": c.bytesOut.Load(), "write_ns": c.writeNs.Load(),
	}
}

// dialer returns a resilience.Dialer over real TCP whose connections count
// into c — the hook node.Options.Dialer exposes for fault injection.
func (c *wireCounters) dialer() resilience.Dialer {
	base := resilience.NetDialer("tcp")
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		nc, err := base(addr, timeout)
		if err != nil {
			return nil, err
		}
		c.dials.Add(1)
		return &countingConn{Conn: nc, c: c}, nil
	}
}

type countingConn struct {
	net.Conn
	c *wireCounters
}

func (cc *countingConn) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := cc.Conn.Write(b)
	cc.c.writeNs.Add(int64(time.Since(start)))
	cc.c.writes.Add(1)
	cc.c.bytesOut.Add(int64(n))
	return n, err
}

// tracePath is where a traced run leaves its spans, inside the checkout.
func tracePath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
