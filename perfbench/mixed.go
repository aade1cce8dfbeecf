package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hirep/internal/node"
	"hirep/internal/pkc"
	"hirep/internal/proof"
	"hirep/internal/xrand"
)

// mixed: hiREP transactions as the paper runs them (§3.5–3.6; see
// core.RunTransaction): one quorum read of the chosen provider, then one
// report on it to each of the c trusted agents. Every mixedProofEvery-th
// transaction also checks one agent's answer with a verifiable proof read.
// Reads, proofs and writes land on the same zipf-hot subjects, and an
// auditor sweeps on a fixed schedule, so a cache that writes make stale, or a
// read-side gain that taxes the write path, shows here. Agents retain
// evidence, cache proofs and ship every commit to their own replica. Their
// stores are in memory; the durable commit is timed by a replay instead
// (replayDurable), because fsync on a shared virtual disk moves read latency
// by more than any bound could allow.
const (
	// mixedRate is the open-loop offer in transactions/s: about 1/6 of the
	// closed-loop capacity on 2 cores (≈ 140–180 tx/s), the share
	// trust-read's offer runs at, for the same reason.
	mixedRate = 30
	// mixedProofEvery spaces the proof reads: one transaction in four, so
	// a 30-second run holds over 100 open-loop proofs and their p90 has
	// ten samples beyond it.
	mixedProofEvery = 4
	mixedWindow     = 4   // outstanding transactions per peer in the closed loop: both cores busy
	mixedSubjects   = 128 // hot subjects, preloaded on every agent; all fit the proof cache
	mixedPreload    = 2   // reports per subject preloaded
	// mixedEvidence is the signed reports an agent keeps per subject, so a
	// proof verifies at most this many signatures.
	mixedEvidence   = 64
	mixedProofCache = 256 // agent proof-cache entries: at least mixedSubjects, so misses come from writes
	// mixedAuditEvery is the sweep cadence of the repository's lying-agent
	// campaign and of its audited-ingest benchmark.
	mixedAuditEvery = 150 * time.Millisecond
	mixedKeepProofs = 16 // bundles kept for the traced proof replay
)

func runMixed(e *env) (*outcome, error) {
	rng := xrand.New(e.seed)
	subjects := subjectIDs(mixedSubjects, rng.Split("subjects"))
	spec := liveSpec{agents: 3, relays: 2, peers: loadPeers(), evidenceCap: mixedEvidence, proofCache: mixedProofCache, auditor: true, replica: true}
	prepare := func(l *live) error {
		if err := l.preload(subjects, mixedPreload, rng.Split("preload")); err != nil {
			return err
		}
		l.auditor.NoteAuditSubjects(subjects...)
		if err := l.auditor.AuditSweep(); err != nil {
			return fmt.Errorf("warm-up sweep: %w", err)
		}
		for p := range l.f.Peers {
			for i := 0; i < readWarm; i++ {
				if _, _, err := l.f.Peers[p].EvaluateSubject(l.books[p], subjects[i], l.replies[p]); err != nil {
					return fmt.Errorf("warm-up: %w", err)
				}
			}
			if _, _, err := l.f.Peers[p].RequestTrustProven(l.infos[p%len(l.infos)], subjects[0], l.replies[p]); err != nil {
				return fmt.Errorf("warm-up proof: %w", err)
			}
		}
		return nil
	}
	// Every round's outcomes, for the table.
	tx, capTx, read, prf, write, openRead := &recorder{}, &recorder{}, &recorder{}, &recorder{}, &recorder{}, &recorder{}
	var sweeps []float64
	o, err := runLive(e, spec, subjects, prepare, func(l *live, d time.Duration, tr *tracer, o *outcome, layer map[string]metric) (int64, headline, []float64, error) {
		// This round's: transactions in each loop, and each loop's reads
		// timed from their transaction's due time.
		rTx, rCap, rRead, rCapRead := &recorder{}, &recorder{}, &recorder{}, &recorder{}
		storedBefore := storeCounts(l.f.Agents)
		var acked atomic.Int64
		var bmu sync.Mutex
		var bundles []*proof.Bundle

		// timedOp runs one call as a span and records its own latency.
		timedOp := func(rec *recorder, parent, id int64, name string, fn func() error) error {
			start := time.Now()
			var err error
			tr.call(parent, id, "node", name, func() bool { err = fn(); return err == nil })
			if err != nil {
				rec.fail()
				return err
			}
			rec.ok(ms(time.Since(start)))
			return nil
		}
		// transaction is one hiREP transaction by peer p on subject s. Its
		// read is also recorded in fromDue, timed from the transaction's due
		// time.
		transaction := func(p int, s pkc.NodeID, positive, withProof bool, id, parent int64, fromDue *recorder, due time.Time) bool {
			peer, reply := l.f.Peers[p], l.replies[p]
			if err := timedOp(read, parent, id, "EvaluateSubject", func() error {
				_, _, err := peer.EvaluateSubject(l.books[p], s, reply)
				return err
			}); err != nil {
				fromDue.fail()
				o.failf("evaluate: %v", err)
				return false
			}
			fromDue.ok(ms(time.Since(due)))
			if withProof {
				agent := int(id/mixedProofEvery) % len(l.infos)
				var b *proof.Bundle
				var res proof.Result
				if err := timedOp(prf, parent, id, "RequestTrustProven", func() (err error) {
					b, res, err = peer.RequestTrustProven(l.infos[agent], s, reply)
					return err
				}); err != nil {
					o.failf("proof read: %v", err)
					return false
				}
				if res.Verdict == proof.Lying {
					o.failf("honest agent %s proven Lying about %s", l.f.Agents[agent].ID().Short(), s.Short())
					return false
				}
				bmu.Lock()
				if len(bundles) < mixedKeepProofs {
					bundles = append(bundles, b)
				}
				bmu.Unlock()
			}
			// §3.6: the outcome is reported to every trusted agent at once.
			var wg sync.WaitGroup
			var bad atomic.Bool
			for _, info := range l.infos {
				wg.Add(1)
				go func(info node.AgentInfo) {
					defer wg.Done()
					var st []node.ReportStatus
					err := timedOp(write, parent, id, "ReportBatch", func() (err error) {
						st, err = peer.ReportBatch(info, []node.BatchReport{{Subject: s, Positive: positive}}, reply)
						return err
					})
					if err != nil || len(st) != 1 || !allStored(st) {
						o.failf("report to %s: %v %v", info.ID().Short(), st, err)
						bad.Store(true)
						return
					}
					acked.Add(1)
				}(info)
			}
			wg.Wait()
			return !bad.Load()
		}

		// The auditor sweeps on its own fixed schedule for the whole round.
		stop := make(chan struct{})
		var auditWG sync.WaitGroup
		auditWG.Add(1)
		var auditErr error
		go func() {
			defer auditWG.Done()
			t := time.NewTicker(mixedAuditEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				start := time.Now()
				err := l.auditor.AuditSweep()
				end := time.Now()
				tr.record(0, 0, 0, "audit", "AuditSweep", start, end)
				if err != nil && !errors.Is(err, node.ErrClosed) {
					auditErr = err
					return
				}
				sweeps = append(sweeps, ms(end.Sub(start)))
			}
		}()

		peers := len(l.f.Peers)
		openDur := time.Duration(float64(d) * openShare)
		n := int(float64(mixedRate) * openDur.Seconds())
		draws := zipfDraws(n, len(subjects), rng.Split("open-draws"))
		outcomes := rng.Split("open-outcomes")
		gen := openLoop{clk: wallClock{}, interval: time.Second / mixedRate, maxOut: maxOutstanding, tr: tr}
		late := gen.run(time.Now().Add(5*time.Millisecond), n, func(i int) op {
			s, positive := subjects[draws[i]], outcomes.Bool(0.7)
			return op{rec: rTx, run: func(parent int64, due time.Time) bool {
				return transaction(i%peers, s, positive, i%mixedProofEvery == 0, int64(i), parent, rRead, due)
			}}
		})

		workers := peers * mixedWindow
		wz := make([]*rand.Zipf, workers)
		wo := make([]*xrand.RNG, workers)
		for w := range wz {
			wz[w] = newZipf(rng.SplitN("closed-draws", w), len(subjects))
			wo[w] = rng.SplitN("closed-outcomes", w)
		}
		done, perCPU, perWall := capacity(rCap, func() int64 {
			return closedLoop(wallClock{}, tr, workers, time.Now().Add(d-openDur), func(w, i int) op {
				s, positive := subjects[wz[w].Uint64()], wo[w].Bool(0.7)
				id := int64(n + w<<20 + i)
				return op{rec: rCap, run: func(parent int64, due time.Time) bool {
					return transaction(w%peers, s, positive, i%mixedProofEvery == 0, id, parent, rCapRead, due)
				}}
			})
		})
		close(stop)
		auditWG.Wait()
		if auditErr != nil {
			return 0, headline{}, nil, fmt.Errorf("audit sweep: %w", auditErr)
		}
		o.count(rTx, rCap)
		tx.absorb(rTx)
		capTx.absorb(rCap)
		if got := storeCounts(l.f.Agents) - storedBefore; got != acked.Load() {
			o.checkf("agent stores grew by %d reports, %d were acked as stored", got, acked.Load())
		}
		if tr != nil {
			layer["audit.sweep_ms"] = metric{median(sweeps), "ms"}
			layer["repstore.replica_lag_reports"] = metric{float64(l.replicaLag()), "count"}
			if err := replayProof(tr, bundles, l.f.Agents[0], layer); err != nil {
				return 0, headline{}, nil, err
			}
		}
		openRead.absorb(rRead)
		h := headline{p50: rCapRead.quantile(0.5), tail: rCapRead.quantile(tailQ), opsS: perCPU, wallOpsS: perWall}
		return int64(n) + done, h, late, nil
	})
	if err != nil {
		return nil, err
	}
	o.note("read_open_p50_ms", openRead.quantile(0.5), "ms")
	o.note("read_open_p90_ms", openRead.quantile(0.9), "ms")
	o.note("read_open_p99_ms", openRead.quantile(0.99), "ms")
	o.note("tx_p50_ms", tx.quantile(0.5), "ms")
	o.note("tx_p90_ms", tx.quantile(0.9), "ms")
	for _, r := range []struct {
		name string
		rec  *recorder
	}{{"read", read}, {"proof", prf}, {"ingest_batch", write}} {
		o.note(r.name+"_p50_ms", r.rec.quantile(0.5), "ms")
		o.note(r.name+"_p90_ms", r.rec.quantile(0.9), "ms")
		o.noteOps(r.name, r.rec)
	}
	o.noteOps("tx_open_loop", tx)
	o.noteOps("tx_closed_loop", capTx)
	o.note("audit_sweeps", float64(len(sweeps)), "count")
	return o, nil
}
