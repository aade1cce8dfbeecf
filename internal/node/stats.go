package node

import (
	"fmt"
	"sync/atomic"

	"hirep/internal/wire"
)

// Stats are the live node's operational counters, for monitoring a deployed
// node (printed by `hirepnode` on shutdown, scraped by tests).
type Stats struct {
	FramesIn        int64 // frames accepted from the listener
	FramesBad       int64 // inbound failures: FramesReadErr + FramesDecodeErr
	FramesReadErr   int64 // transport-level read failures (resets, timeouts)
	FramesDecodeErr int64 // frames rejected as malformed (oversized, torn)
	SessionsShed    int64 // inbound connections refused at the session cap
	OnionsForwarded int64 // relay duty: peeled and passed on
	OnionsExited    int64 // onion payloads consumed at this node
	OnionsRejected  int64 // blobs we could not peel (not ours / corrupt)
	TrustServed     int64 // trust requests answered as an agent
	ReportsStored   int64 // reports accepted into the agent store
	WalksAnswered   int64 // agent-list walks answered
	ReportsDeferred int64 // reports queued in the outbox instead of sent
	ReportsLost     int64 // reports dropped (outbox eviction or corruption)

	// Batched ingest, agent side (DESIGN.md §11). Rejects are counted by
	// reason on both the batched and the legacy single-report path; store
	// failures are transient and never conflated with protocol rejects.
	ReportBatches           int64 // report batches run through the verification pool
	IngestRejectedReplay    int64 // reports rejected: nonce already observed
	IngestRejectedKey       int64 // reports rejected: unknown reporter or bad signature
	IngestRejectedMalformed int64 // reports rejected: undecodable report wire
	IngestStoreFailed       int64 // reports verified but not stored (retryable)
	IngestShed              int64 // reports shed by admission control (retryable)

	// Batched ingest, sender side: per-report ack reconciliation. Together
	// with ReportsDeferred these account for every report handed to
	// ReportBatchOrDefer — acked + rejected + deferred add up.
	ReportsAcked    int64 // reports acknowledged as stored by the agent
	ReportsRejected int64 // reports the agent's ack rejected permanently
	ReplBatches     int64 // committed store batches tapped for replication
	ReplShipped     int64 // batches delivered to and acknowledged by replicas
	ReplApplied     int64 // shipped batches applied as a replica
	ReplRepairs     int64 // anti-entropy rounds completed as a primary
	ReplPulled      int64 // shards pulled from surviving replicas at promotion

	// Routed overlay (DESIGN.md §12): placement-map lifecycle, wrong-owner
	// routing traffic, and shard-handoff progress during rebalances.
	PlacementAdopted         int64 // signed placement maps adopted
	PlacementRejected        int64 // placement maps rejected (signature, authority, stale epoch)
	PlacementRedirects       int64 // wrong-owner answers served or received
	IngestRejectedWrongOwner int64 // reports rejected: subject outside this group's shards
	ShardsSealed             int64 // shards sealed against writes for a handoff
	ShardsPulled             int64 // shards pulled and merged during a rebalance

	// Sybil-admission gate (DESIGN.md §13). Agent side: reports bounced
	// pending admission, identities admitted, spent-solution replays, and
	// rate-accounting revocations. Sender side: proofs of work minted and
	// the total hash attempts they cost — the campaign harness's
	// attacker-cost unit.
	AdmissionRequired  int64 // reports bounced with StatusAdmissionRequired
	AdmissionAdmitted  int64 // identities admitted on a valid solution
	AdmissionReplayed  int64 // batches rejected: solution already spent
	AdmissionThrottled int64 // admissions revoked by per-identity rate accounting
	AdmissionSolved    int64 // admission proofs this node minted as a sender
	AdmissionWork      int64 // hash attempts spent minting those proofs

	// Verifiable reads (DESIGN.md §14). Served counts proof payloads
	// answered (agent assembly or edge cache); Verified/Partial/Lying are
	// client-side verdicts on bundles this node fetched and checked; the
	// cache counters track the proof payload cache on agents and edges.
	ProofsServed     int64 // proof bundles/snapshots served (agent or edge)
	ProofsVerified   int64 // bundles fetched and verified by this node
	ProofsPartial    int64 // verified bundles carrying declared-incomplete evidence
	ProofsLying      int64 // verified bundles proving their agent lied
	ProofCacheHits   int64 // proof payloads served straight from cache
	ProofCacheMisses int64 // proof requests that had to assemble or forward

	// Self-healing trust plane (DESIGN.md §15). Sweep/probe/failure counters
	// track the background auditor; advisory counters split gossip intake
	// into accepted (verified end to end), rejected (failed any check — never
	// acted on), and duplicate; the lifecycle counters record book actions
	// taken on verified evidence.
	AuditSweeps          int64 // audit sweeps completed
	AuditProbes          int64 // per-agent audit fetches attempted (incl. probation)
	AuditFailures        int64 // audits abandoned without a verdict (timeout, Partial, unreachable)
	AuditDiverged        int64 // cross-checks where two agents' bundles disagreed
	AdvisoriesIssued     int64 // advisories this node signed and gossiped
	AdvisoriesAccepted   int64 // received advisories that passed full re-verification
	AdvisoriesRejected   int64 // received advisories rejected (malformed, unsigned, unproven)
	AdvisoriesDuplicate  int64 // received advisories already processed (gossip dedup)
	AgentsQuarantined    int64 // agents moved to quarantine on verified evidence
	AgentsRehabilitated  int64 // suspects cleared by a Matching re-audit
	AgentsEvicted        int64 // agents evicted (second strike of verified evidence)
	SlanderSuspectsFound int64 // slander-suspect reporters flagged by skew scans
}

// String renders the counters compactly.
func (s Stats) String() string {
	return fmt.Sprintf("frames=%d bad=%d(read=%d decode=%d) shed=%d fwd=%d exit=%d rejected=%d served=%d reports=%d walks=%d deferred=%d lost=%d ingest(batches=%d replay=%d key=%d malformed=%d storefail=%d shed=%d wrongowner=%d) acks(stored=%d rejected=%d) repl(batches=%d shipped=%d applied=%d repairs=%d pulled=%d) overlay(adopted=%d rejected=%d redirects=%d sealed=%d pulled=%d) admission(required=%d admitted=%d replayed=%d throttled=%d solved=%d work=%d) proof(served=%d verified=%d partial=%d lying=%d cachehit=%d cachemiss=%d) audit(sweeps=%d probes=%d failures=%d diverged=%d issued=%d accepted=%d rejected=%d dup=%d quarantined=%d rehabbed=%d evicted=%d slander=%d)",
		s.FramesIn, s.FramesBad, s.FramesReadErr, s.FramesDecodeErr,
		s.SessionsShed, s.OnionsForwarded, s.OnionsExited,
		s.OnionsRejected, s.TrustServed, s.ReportsStored, s.WalksAnswered,
		s.ReportsDeferred, s.ReportsLost,
		s.ReportBatches, s.IngestRejectedReplay, s.IngestRejectedKey,
		s.IngestRejectedMalformed, s.IngestStoreFailed, s.IngestShed,
		s.IngestRejectedWrongOwner,
		s.ReportsAcked, s.ReportsRejected,
		s.ReplBatches, s.ReplShipped, s.ReplApplied, s.ReplRepairs, s.ReplPulled,
		s.PlacementAdopted, s.PlacementRejected, s.PlacementRedirects,
		s.ShardsSealed, s.ShardsPulled,
		s.AdmissionRequired, s.AdmissionAdmitted, s.AdmissionReplayed,
		s.AdmissionThrottled, s.AdmissionSolved, s.AdmissionWork,
		s.ProofsServed, s.ProofsVerified, s.ProofsPartial, s.ProofsLying,
		s.ProofCacheHits, s.ProofCacheMisses,
		s.AuditSweeps, s.AuditProbes, s.AuditFailures, s.AuditDiverged,
		s.AdvisoriesIssued, s.AdvisoriesAccepted, s.AdvisoriesRejected,
		s.AdvisoriesDuplicate, s.AgentsQuarantined, s.AgentsRehabilitated,
		s.AgentsEvicted, s.SlanderSuspectsFound)
}

// nodeStats is the atomic backing store.
type nodeStats struct {
	framesIn, framesReadErr, framesDecodeErr      atomic.Int64
	sessionsShed                                  atomic.Int64
	onionsForwarded, onionsExited, onionsRejected atomic.Int64
	trustServed, reportsStored, walksAnswered     atomic.Int64
	reportsDeferred, reportsLost                  atomic.Int64
	replBatches, replShipped, replApplied         atomic.Int64
	replRepairs, replPulled                       atomic.Int64

	reportBatches                              atomic.Int64
	ingestRejectedReplay, ingestRejectedKey    atomic.Int64
	ingestRejectedMalformed, ingestStoreFailed atomic.Int64
	ingestShed, reportsAcked, reportsRejected  atomic.Int64

	placementAdopted, placementRejected atomic.Int64
	placementRedirects                  atomic.Int64
	ingestRejectedWrongOwner            atomic.Int64
	shardsSealed, shardsPulled          atomic.Int64

	admissionRequired, admissionAdmitted  atomic.Int64
	admissionReplayed, admissionThrottled atomic.Int64
	admissionSolved, admissionWork        atomic.Int64

	proofsServed, proofsVerified     atomic.Int64
	proofsPartial, proofsLying       atomic.Int64
	proofCacheHits, proofCacheMisses atomic.Int64

	auditSweeps, auditProbes                atomic.Int64
	auditFailures, auditDiverged            atomic.Int64
	advisoriesIssued, advisoriesAccepted    atomic.Int64
	advisoriesRejected, advisoriesDuplicate atomic.Int64
	agentsQuarantined, agentsRehabilitated  atomic.Int64
	agentsEvicted, slanderSuspectsFound     atomic.Int64
}

// Stats returns a snapshot of the node's counters. Taking a snapshot also
// refreshes the store-health gauges so a shutdown dump sees current values.
func (n *Node) Stats() Stats {
	n.updateStoreHealth()
	readErr := n.stats.framesReadErr.Load()
	decodeErr := n.stats.framesDecodeErr.Load()
	return Stats{
		FramesIn:                n.stats.framesIn.Load(),
		FramesBad:               readErr + decodeErr,
		FramesReadErr:           readErr,
		FramesDecodeErr:         decodeErr,
		SessionsShed:            n.stats.sessionsShed.Load(),
		OnionsForwarded:         n.stats.onionsForwarded.Load(),
		OnionsExited:            n.stats.onionsExited.Load(),
		OnionsRejected:          n.stats.onionsRejected.Load(),
		TrustServed:             n.stats.trustServed.Load(),
		ReportsStored:           n.stats.reportsStored.Load(),
		WalksAnswered:           n.stats.walksAnswered.Load(),
		ReportsDeferred:         n.stats.reportsDeferred.Load(),
		ReportsLost:             n.stats.reportsLost.Load(),
		ReportBatches:           n.stats.reportBatches.Load(),
		IngestRejectedReplay:    n.stats.ingestRejectedReplay.Load(),
		IngestRejectedKey:       n.stats.ingestRejectedKey.Load(),
		IngestRejectedMalformed: n.stats.ingestRejectedMalformed.Load(),
		IngestStoreFailed:       n.stats.ingestStoreFailed.Load(),
		IngestShed:              n.stats.ingestShed.Load(),
		ReportsAcked:            n.stats.reportsAcked.Load(),
		ReportsRejected:         n.stats.reportsRejected.Load(),
		ReplBatches:             n.stats.replBatches.Load(),
		ReplShipped:             n.stats.replShipped.Load(),
		ReplApplied:             n.stats.replApplied.Load(),
		ReplRepairs:             n.stats.replRepairs.Load(),
		ReplPulled:              n.stats.replPulled.Load(),

		PlacementAdopted:         n.stats.placementAdopted.Load(),
		PlacementRejected:        n.stats.placementRejected.Load(),
		PlacementRedirects:       n.stats.placementRedirects.Load(),
		IngestRejectedWrongOwner: n.stats.ingestRejectedWrongOwner.Load(),
		ShardsSealed:             n.stats.shardsSealed.Load(),
		ShardsPulled:             n.stats.shardsPulled.Load(),

		AdmissionRequired:  n.stats.admissionRequired.Load(),
		AdmissionAdmitted:  n.stats.admissionAdmitted.Load(),
		AdmissionReplayed:  n.stats.admissionReplayed.Load(),
		AdmissionThrottled: n.stats.admissionThrottled.Load(),
		AdmissionSolved:    n.stats.admissionSolved.Load(),
		AdmissionWork:      n.stats.admissionWork.Load(),

		ProofsServed:     n.stats.proofsServed.Load(),
		ProofsVerified:   n.stats.proofsVerified.Load(),
		ProofsPartial:    n.stats.proofsPartial.Load(),
		ProofsLying:      n.stats.proofsLying.Load(),
		ProofCacheHits:   n.stats.proofCacheHits.Load(),
		ProofCacheMisses: n.stats.proofCacheMisses.Load(),

		AuditSweeps:          n.stats.auditSweeps.Load(),
		AuditProbes:          n.stats.auditProbes.Load(),
		AuditFailures:        n.stats.auditFailures.Load(),
		AuditDiverged:        n.stats.auditDiverged.Load(),
		AdvisoriesIssued:     n.stats.advisoriesIssued.Load(),
		AdvisoriesAccepted:   n.stats.advisoriesAccepted.Load(),
		AdvisoriesRejected:   n.stats.advisoriesRejected.Load(),
		AdvisoriesDuplicate:  n.stats.advisoriesDuplicate.Load(),
		AgentsQuarantined:    n.stats.agentsQuarantined.Load(),
		AgentsRehabilitated:  n.stats.agentsRehabilitated.Load(),
		AgentsEvicted:        n.stats.agentsEvicted.Load(),
		SlanderSuspectsFound: n.stats.slanderSuspectsFound.Load(),
	}
}

// countFrame counts one accepted inbound frame, per message type.
func (n *Node) countFrame(typ wire.MsgType) {
	n.stats.framesIn.Add(1)
	if int(typ) < len(n.frameCnt) && n.frameCnt[typ] != nil {
		n.frameCnt[typ].Inc()
	} else {
		n.frameUnknown.Inc()
	}
}

// countReadError counts an inbound transport-level read failure.
func (n *Node) countReadError() {
	n.stats.framesReadErr.Add(1)
	n.frameReadErr.Inc()
}

// countDecodeError counts an inbound frame rejected as malformed.
func (n *Node) countDecodeError() {
	n.stats.framesDecodeErr.Add(1)
	n.frameDecodeErr.Inc()
}
