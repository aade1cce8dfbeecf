package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hirep/internal/agentdir"
	"hirep/internal/gnutella"
	"hirep/internal/node"
	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/xrand"
)

// liveSpec shapes one loopback fleet.
type liveSpec struct {
	agents, relays, peers int
	durable               bool // agents (and replicas) keep WAL-backed stores, fsync on
	evidenceCap           int  // per-subject evidence retained by agents (0 = tallies only)
	proofCache            int  // agent proof payload cache entries
	replica               bool // give every primary its own replica agent
	auditor               bool // start one auditor node with its own book
}

// batchSize is the reports per ReportBatch call wherever the benchmark
// sends full batches: the default sender batch size.
const batchSize = 256

// live is a running fleet plus everything a workload needs to drive it.
type live struct {
	f        *node.Fleet
	replicas []*node.Node // replicas[i] replicates f.Agents[i]
	auditor  *node.Node
	infos    []node.AgentInfo
	books    []*node.AgentBook // per peer: every agent, quorum = all
	replies  []*onion.Onion    // per peer reply onion
	dir      string
}

// baseOptions is every live node's configuration: defaults except a
// generous timeout, and when traced, the counting dialer.
func baseOptions(wc *wireCounters) node.Options {
	opts := node.Options{Timeout: 5 * time.Second}
	if wc != nil {
		opts.Dialer = wc.dialer()
	}
	return opts
}

// startLive builds the fleet in dir: agent onions through every relay, one
// reply onion per peer, and agent stores in dir when spec.durable.
func startLive(spec liveSpec, dir string, wc *wireCounters) (*live, error) {
	l := &live{dir: dir}
	base := baseOptions(wc)
	if spec.replica {
		for i := 0; i < spec.agents; i++ {
			opts := base
			opts.Agent = true
			if spec.durable {
				opts.StoreDir = filepath.Join(dir, fmt.Sprintf("replica-%d", i))
			}
			r, err := node.Listen("127.0.0.1:0", opts)
			if err != nil {
				l.close()
				return nil, fmt.Errorf("replica: %w", err)
			}
			l.replicas = append(l.replicas, r)
		}
	}
	f, err := node.StartFleet(node.FleetConfig{
		Agents: spec.agents, Relays: spec.relays, Peers: spec.peers, Opts: base,
		AgentOpts: func(i int, o *node.Options) {
			if spec.durable {
				o.StoreDir = filepath.Join(dir, fmt.Sprintf("agent-%d", i))
			}
			o.EvidenceCap = spec.evidenceCap
			o.ProofCache = spec.proofCache
			if spec.replica {
				o.Replicas = []string{l.replicas[i].Addr()}
			}
		},
	})
	if err != nil {
		l.close()
		return nil, err
	}
	l.f = f
	for i, r := range l.replicas {
		r.AuthorizeReplicaOf(f.Agents[i].ID())
	}
	if l.infos, err = f.AgentInfos(); err != nil {
		l.close()
		return nil, err
	}
	for _, p := range f.Peers {
		book, err := f.Book(l.infos, len(l.infos), len(l.infos))
		if err != nil {
			l.close()
			return nil, err
		}
		reply, err := f.ReplyOnion(p)
		if err != nil {
			l.close()
			return nil, err
		}
		l.books = append(l.books, book)
		l.replies = append(l.replies, reply)
	}
	if spec.auditor {
		opts := base
		a, err := node.Listen("127.0.0.1:0", opts)
		if err != nil {
			l.close()
			return nil, fmt.Errorf("auditor: %w", err)
		}
		l.auditor = a
		book, err := f.Book(l.infos, len(l.infos), 1)
		if err != nil {
			l.close()
			return nil, err
		}
		reply, err := f.ReplyOnion(a)
		if err != nil {
			l.close()
			return nil, err
		}
		if err := a.StartAuditor(book, reply); err != nil {
			l.close()
			return nil, err
		}
	}
	return l, nil
}

func (l *live) close() {
	if l.f != nil {
		_ = l.f.Close()
	}
	for _, r := range l.replicas {
		_ = r.Close()
	}
	if l.auditor != nil {
		_ = l.auditor.Close()
	}
	_ = os.RemoveAll(l.dir)
}

// nodes lists every node of the fleet, for summing counters.
func (l *live) nodes() []*node.Node {
	var out []*node.Node
	out = append(out, l.f.Agents...)
	out = append(out, l.f.Relays...)
	out = append(out, l.f.Peers...)
	out = append(out, l.replicas...)
	if l.auditor != nil {
		out = append(out, l.auditor)
	}
	return out
}

// preload sends every agent the same signed reports, perSubject reports on
// each subject with outcomes drawn from rng, in full batches from peer 0 to
// all agents at once.
func (l *live) preload(subjects []pkc.NodeID, perSubject int, rng *xrand.RNG) error {
	var reports []node.BatchReport
	for k := 0; k < perSubject; k++ {
		for _, s := range subjects {
			reports = append(reports, node.BatchReport{Subject: s, Positive: rng.Bool(0.7)})
		}
	}
	p := l.f.Peers[0]
	errs := make([]error, len(l.infos))
	var wg sync.WaitGroup
	for i, info := range l.infos {
		wg.Add(1)
		go func(i int, info node.AgentInfo) {
			defer wg.Done()
			for off := 0; off < len(reports) && errs[i] == nil; off += batchSize {
				st, err := p.ReportBatch(info, reports[off:min(off+batchSize, len(reports))], l.replies[0])
				if err == nil && !allStored(st) {
					err = fmt.Errorf("acked %v", st)
				}
				errs[i] = err
			}
		}(i, info)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// subjectIDs derives n subject IDs from rng: the seed changes which
// identities are read and written, not how many.
func subjectIDs(n int, rng *xrand.RNG) []pkc.NodeID {
	out := make([]pkc.NodeID, n)
	for i := range out {
		for j := range out[i] {
			out[i][j] = byte(rng.Intn(256))
		}
	}
	return out
}

// zipfDraws pre-draws n zipf-skewed indices into [0, k), so the subject
// sequence depends on the seed alone, never on timing.
func zipfDraws(n, k int, rng *xrand.RNG) []int {
	z := newZipf(rng, k)
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// newZipf draws subject indices in [0, k) with the popularity skew the
// repository's Gnutella catalog uses for what peers look up.
func newZipf(rng *xrand.RNG, k int) *rand.Zipf {
	return rng.Zipf(gnutella.DefaultCatalogSpec().Skew, uint64(k-1))
}

// loadPeers is the number of load-generating peers: two, but never more
// than the host has cores.
func loadPeers() int { return max(1, min(2, runtime.NumCPU())) }

// nodeCounters sums the exported counters of nodes: Stats fields by name,
// plus every Metrics() registry counter.
func nodeCounters(nodes []*node.Node) counters {
	c := counters{}
	for _, n := range nodes {
		s := n.Stats()
		c.add(counters{
			"frames_in": s.FramesIn, "onions_forwarded": s.OnionsForwarded, "onions_exited": s.OnionsExited,
			"onions_rejected": s.OnionsRejected, "trust_served": s.TrustServed, "reports_stored": s.ReportsStored,
			"report_batches": s.ReportBatches, "ingest_shed": s.IngestShed, "repl_batches": s.ReplBatches,
			"repl_shipped": s.ReplShipped, "repl_applied": s.ReplApplied, "proofs_served": s.ProofsServed,
			"proofs_verified": s.ProofsVerified, "proofs_partial": s.ProofsPartial, "proofs_lying": s.ProofsLying,
			"proof_cache_hits": s.ProofCacheHits, "proof_cache_misses": s.ProofCacheMisses,
			"audit_sweeps": s.AuditSweeps, "audit_probes": s.AuditProbes, "audit_failures": s.AuditFailures,
			"reports_acked": s.ReportsAcked,
		})
		c.add(counters(n.Metrics().Snapshot()))
	}
	return c
}

// storeCounts sums the agents' report-store sizes.
func storeCounts(agents []*node.Node) int64 {
	var total int64
	for _, a := range agents {
		total += int64(a.Agent().ReportCount())
	}
	return total
}

// liveLayers fills the per-layer metrics every live workload shares from
// the counter delta d over ops operations.
func liveLayers(d counters, ops int64, wire counters, m map[string]metric) {
	m["onion.peels_per_op"] = metric{perOp(d["onions_forwarded"]+d["onions_exited"], ops), "count"}
	m["node.trust_served_per_op"] = metric{perOp(d["trust_served"], ops), "count"}
	m["node.frames_in_per_op"] = metric{perOp(d["frames_in"], ops), "count"}
	m["node.report_batches"] = metric{float64(d["report_batches"]), "count"}
	m["node.ingest_shed_frac"] = metric{frac(d["ingest_shed"], d["reports_stored"]+d["ingest_shed"]), "ratio"}
	m["node.repl_shipped_frac"] = metric{frac(d["repl_shipped"], d["repl_batches"]), "ratio"}
	m["transport.frames_out_per_op"] = metric{perOp(d["transport_frames_out_total"], ops), "count"}
	m["transport.dials"] = metric{float64(wire["dials"]), "count"}
	m["transport.writes_per_op"] = metric{perOp(wire["writes"], ops), "count"}
	m["transport.bytes_out_per_op"] = metric{perOp(wire["bytes_out"], ops), "B"}
	m["transport.write_us_per_op"] = metric{perOp(wire["write_ns"], ops) / 1e3, "us"}
	m["repstore.reports_stored"] = metric{float64(d["reports_stored"]), "count"}
	m["proof.cache_hit_ratio"] = metric{frac(d["proof_cache_hits"], d["proof_cache_hits"]+d["proof_cache_misses"]), "ratio"}
	m["proof.partial_frac"] = metric{frac(d["proofs_partial"], d["proofs_verified"]), "ratio"}
	m["audit.probes_per_sweep"] = metric{frac(d["audit_probes"], d["audit_sweeps"]), "count"}
	m["audit.failures"] = metric{float64(d["audit_failures"]), "count"}
	m["resilience.retries"] = metric{float64(d["node_retries_total"]), "count"}
	m["resilience.breaker_opens"] = metric{float64(d["node_breaker_open_total"]), "count"}
}

// replicaLag is how many reports the primaries hold that their replicas do
// not yet.
func (l *live) replicaLag() int64 {
	var lag int64
	for i, r := range l.replicas {
		a := l.f.Agents[i]
		lag += int64(a.Agent().ReportCount() - r.ReplicaReportCount(a.ID()))
	}
	return lag
}

// outboxDepth sums the peers' outbox depths.
func (l *live) outboxDepth() int {
	total := 0
	for _, p := range l.f.Peers {
		total += p.OutboxDepth()
	}
	return total
}

// checkReports fails unless every status is StatusStored.
func allStored(st []node.ReportStatus) bool {
	for _, s := range st {
		if s != node.StatusStored {
			return false
		}
	}
	return true
}

// reportWires signs n reports about subjects with a fresh identity, for
// replays through pkc and repstore at the workload's own sizes.
func reportWires(subjects []pkc.NodeID, n int) (*pkc.Identity, [][]byte, error) {
	id, err := pkc.NewIdentity(nil)
	if err != nil {
		return nil, nil, err
	}
	wires := make([][]byte, n)
	for i := range wires {
		nonce, err := pkc.NewNonce(nil)
		if err != nil {
			return nil, nil, err
		}
		wires[i] = agentdir.SignReport(id, subjects[i%len(subjects)], i%2 == 0, nonce)
	}
	return id, wires, nil
}

// headline is a workload's end-to-end result: its headline op's median and
// tail latency, and the work it completed per CPU-second. wallOpsS is the
// same work per wall-second, printed but not gated.
type headline struct{ p50, tail, opsS, wallOpsS float64 }

// medianHeadline takes each field's median over rounds.
func medianHeadline(hs []headline) headline {
	var p50, tail, opsS, wall []float64
	for _, h := range hs {
		p50, tail, opsS, wall = append(p50, h.p50), append(tail, h.tail), append(opsS, h.opsS), append(wall, h.wallOpsS)
	}
	return headline{median(p50), median(tail), median(opsS), median(wall)}
}

// capacity times a closed loop: it returns what run returns, the successes
// in rec per process CPU-second, and the same per wall-second. Every node of
// the fleet runs in this process, so the CPU clock holds the whole fleet's
// work; unlike the wall clock, it does not count the time a shared host's
// other tenants take (CPU steal).
func capacity(rec *recorder, run func() int64) (done int64, perCPU, perWall float64) {
	w0, c0 := time.Now(), cpuClock(clockProcess)
	done = run()
	cpu, wall := cpuClock(clockProcess)-c0, time.Since(w0)
	ok := float64(rec.succeeded())
	return done, ok / cpu.Seconds(), ok / wall.Seconds()
}

// phaseFn drives one measured round of d against l. It returns the ops it
// ran and the generator's lateness samples (ms; nil for closed loops). With
// tr non-nil it may add workload-specific per-layer metrics to layer.
type phaseFn func(l *live, d time.Duration, tr *tracer, o *outcome, layer map[string]metric) (ops int64, h headline, late []float64, err error)

// liveRounds is how many fleets a live workload builds in turn, measuring
// each for an equal share of the run. setup_s and each end-to-end figure
// are medians over the rounds: a fleet that starts or runs slow in up to two
// rounds, for reasons of its own or of the host's, moves none of them.
const liveRounds = 5

// runLive builds the fleets in turn, times each set-up, and measures the
// rounds. A traced run adds one more round on a fleet whose nodes dial
// through the counting connection, with spans on, for the per-layer
// metrics; the tracing overhead is that round against the untraced median.
func runLive(e *env, spec liveSpec, subjects []pkc.NodeID, prepare func(*live) error, phase phaseFn) (*outcome, error) {
	o := &outcome{e2e: map[string]metric{}, layer: map[string]metric{}}
	var setups []float64
	var rounds []headline
	n := liveRounds
	if e.trace {
		n++
	}
	for k := 0; k < n; k++ {
		traced := k == liveRounds
		var wc *wireCounters
		var tr *tracer
		if traced {
			wc, tr = &wireCounters{}, e.tr
		}
		t0 := time.Now()
		l, err := startLive(spec, filepath.Join(e.dir, fmt.Sprintf("setup-%d", k)), wc)
		if err != nil {
			return nil, err
		}
		if err := prepare(l); err != nil {
			l.close()
			return nil, err
		}
		if !traced {
			setups = append(setups, time.Since(t0).Seconds())
		}
		d := e.dur / time.Duration(n)
		e.sampler.watch(l.outboxDepth)
		var before counters
		var wireBefore counters
		var proc procSnap
		if traced {
			before, wireBefore, proc = nodeCounters(l.nodes()), wc.snapshot(), takeProc()
		}
		ops, h, late, err := phase(l, d, tr, o, o.layer)
		if err != nil {
			l.close()
			return nil, err
		}
		if !traced {
			fmt.Printf("  round %d: set-up %.3fs p50 %.3fms tail %.3fms ops %.1f/CPU-s %.1f/s\n", k, setups[k], h.p50, h.tail, h.opsS, h.wallOpsS)
			rounds = append(rounds, h)
			l.close()
			continue
		}
		procAfter := takeProc()
		dNode := delta(before, nodeCounters(l.nodes()))
		dWire := delta(wireBefore, wc.snapshot())
		liveLayers(dNode, ops, dWire, o.layer)
		processMetrics(proc, procAfter, ops, e.sampler, o.layer)
		o.layer["resilience.outbox_depth_max"] = metric{float64(e.sampler.outboxMax()), "count"}
		if len(late) > 0 { // closed loops have no schedule to fall behind
			o.layer["gen.late_p99_ms"] = metric{quantile(late, 0.99), "ms"}
			o.layer["gen.late_max_ms"] = metric{quantile(late, 1), "ms"}
		}
		untraced := medianHeadline(rounds)
		o.layer["trace.overhead_p50_ms"] = metric{h.p50 - untraced.p50, "ms"}
		o.layer["trace.overhead_ops_frac"] = metric{relDiff(h.opsS, untraced.opsS), "ratio"}
		selfLayers(tr, ops, o.layer)
		signer, wires, err := reportWires(subjects, batchSize)
		if err == nil {
			err = replayCrypto(tr, int(frac(dWire["bytes_out"], dWire["writes"])), wires, signer, spec.relays, o.layer)
		}
		if err == nil {
			err = replayDurable(tr, l.dir, spec.evidenceCap, signer, wires, o.layer)
		}
		l.close()
		if err != nil {
			return nil, err
		}
	}
	h := medianHeadline(rounds)
	o.e2e["setup_s"] = metric{median(setups), "s"}
	o.note("setup_min_s", quantile(setups, 0), "s")
	o.note("setup_max_s", quantile(setups, 1), "s")
	o.e2e["p50_ms"] = metric{h.p50, "ms"}
	o.e2e["tail_ms"] = metric{h.tail, "ms"}
	o.e2e["ops_s"] = metric{h.opsS, "1/s"}
	o.note("capacity_wall_ops_s", h.wallOpsS, "1/s")
	return o, nil
}
