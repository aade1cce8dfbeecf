package node

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"time"

	"hirep/internal/agentdir"
	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/repstore"
	"hirep/internal/resilience"
	"hirep/internal/wire"
)

// This file implements the batched, acknowledged report-ingest pipeline
// (DESIGN.md §11). A TReportBatch packs many signed transaction reports into
// one onion-routed frame; the agent verifies them through a worker pool with
// pkc.VerifyBatch, appends the survivors to its store, and answers with a
// TReportBatchAck carrying one status per report through the sender's reply
// onion. The ack is what structurally fixes the silent-drop bug of the
// fire-and-forget TReport path: a rejected report comes back named, counted
// by reason on both sides, and retried or surfaced instead of vanishing.

// MaxBatchReports bounds the reports carried by one TReportBatch. At ~105
// wire bytes per signed report the cap keeps a full batch, sealed and
// wrapped in its onion envelope, comfortably under wire.MaxFrame.
const MaxBatchReports = 2048

// Batch-ingest defaults (Options overrides).
const (
	defaultReportBatchSize = 256 // reports per batch the sender packs
	defaultVerifyQueue     = 128 // decoded batches awaiting verification
)

// ErrBatchTooLarge reports a ReportBatch call exceeding MaxBatchReports.
var ErrBatchTooLarge = fmt.Errorf("node: report batch exceeds %d reports", MaxBatchReports)

// ReportStatus is the per-report outcome carried in a TReportBatchAck.
type ReportStatus uint8

// Per-report ack statuses. Protocol rejects (replay, bad key, malformed) are
// final — retrying the identical report cannot succeed — while StatusSaturated
// and StatusStoreFailed are transient agent-side conditions the sender's
// outbox machinery retries, exactly as it retries a failed send.
const (
	StatusStored      ReportStatus = iota // verified and durably appended
	StatusReplay                          // nonce already observed
	StatusBadKey                          // unknown reporter or failed signature
	StatusMalformed                       // report wire undecodable
	StatusStoreFailed                     // verified, but the store append failed (retryable)
	StatusSaturated                       // shed by admission control before verification (retryable)
	StatusWrongOwner                      // subject outside this agent group's shards (retryable elsewhere)
	// StatusAdmissionRequired bounces a whole batch from an identity the
	// agent's sybil-admission gate (DESIGN.md §13) has not admitted: the
	// batch must carry a proof-of-work solution bound to the reporter's
	// nodeID. Not Retryable() — a blind resend cannot succeed — but not
	// final either: ReportBatch mints a solution and retries, and the ack
	// carries the demanded difficulty. Pre-§13 senders read it as a
	// permanent reject (safe but lossy; see the mixed-version note).
	StatusAdmissionRequired
)

// Retryable reports whether the status names a condition worth re-sending
// the identical report for. StatusWrongOwner is retryable in a specific
// sense: not at this agent — the overlay map says another group owns the
// subject — but through the outbox, whose flusher re-routes each deferred
// report by the then-current placement map.
func (s ReportStatus) Retryable() bool {
	return s == StatusStoreFailed || s == StatusSaturated || s == StatusWrongOwner
}

func (s ReportStatus) String() string {
	switch s {
	case StatusStored:
		return "stored"
	case StatusReplay:
		return "replay"
	case StatusBadKey:
		return "bad-key"
	case StatusMalformed:
		return "malformed"
	case StatusStoreFailed:
		return "store-failed"
	case StatusSaturated:
		return "saturated"
	case StatusWrongOwner:
		return "wrong-owner"
	case StatusAdmissionRequired:
		return "admission-required"
	default:
		return fmt.Sprintf("ReportStatus(%d)", uint8(s))
	}
}

// BatchReport is one report in a sender-side batch.
type BatchReport struct {
	Subject  pkc.NodeID
	Positive bool
}

// reportBatch is a decoded TReportBatch plaintext.
type reportBatch struct {
	sp         ed25519.PublicKey // reporter signature key (ID is derived)
	ap         *ecdh.PublicKey   // reporter anonymity key, for sealing the ack
	nonce      pkc.Nonce         // batch nonce matching ack to batch
	replyOnion *onion.Onion      // route for the ack
	reports    [][]byte          // signed report wires (agentdir.SignReport)
	sol        []byte            // optional admission proof-of-work solution
}

// encodeReportBatch builds the TReportBatch plaintext: SP_p, AP_p, batch
// nonce, reply onion, then the signed report wires — followed, only when the
// sender is answering a StatusAdmissionRequired ack, by a trailing-optional
// admission solution (DESIGN.md §13). The suffix is appended strictly on
// demand so batches to pre-§13 agents keep the exact legacy shape those
// agents' decoders Finish() on. Sealed to the agent's anonymity key by the
// caller.
func encodeReportBatch(self *pkc.Identity, nonce pkc.Nonce, replyOnion *onion.Onion, reports [][]byte, sol []byte) []byte {
	var e wire.Encoder
	e.Bytes(self.Sign.Public)
	e.Bytes(self.Anon.Public.Bytes())
	e.Bytes(nonce[:])
	encodeOnion(&e, replyOnion)
	e.U64(uint64(len(reports)))
	for _, r := range reports {
		e.Bytes(r)
	}
	if len(sol) > 0 {
		e.Bytes(sol)
	}
	return e.Encode()
}

// decodeReportBatch parses a TReportBatch plaintext written by
// encodeReportBatch, rejecting oversized counts before allocating.
func decodeReportBatch(plain []byte) (reportBatch, error) {
	d := wire.NewDecoder(plain)
	spRaw := d.Bytes()
	apRaw := d.Bytes()
	nonceRaw := d.Bytes()
	replyOnion, onionErr := decodeOnion(d)
	count := d.U64()
	if d.Err() != nil {
		return reportBatch{}, d.Err()
	}
	if onionErr != nil {
		return reportBatch{}, onionErr
	}
	if len(spRaw) != ed25519.PublicKeySize || len(nonceRaw) != pkc.NonceSize {
		return reportBatch{}, ErrBadMessage
	}
	if count == 0 || count > MaxBatchReports {
		return reportBatch{}, ErrBadMessage
	}
	ap, err := ecdh.X25519().NewPublicKey(apRaw)
	if err != nil {
		return reportBatch{}, ErrBadMessage
	}
	b := reportBatch{
		sp:         ed25519.PublicKey(append([]byte(nil), spRaw...)),
		ap:         ap,
		replyOnion: replyOnion,
		reports:    make([][]byte, 0, count),
	}
	copy(b.nonce[:], nonceRaw)
	for i := uint64(0); i < count; i++ {
		b.reports = append(b.reports, d.Bytes())
	}
	if d.More() {
		// Trailing-optional admission solution (§13); absent in batches from
		// pre-admission senders, which still decode.
		sol := d.Bytes()
		if len(sol) != pkc.AdmissionSolutionSize {
			return reportBatch{}, ErrBadMessage
		}
		b.sol = sol
	}
	if d.Finish() != nil {
		return reportBatch{}, d.Finish()
	}
	return b, nil
}

// encodeBatchAck builds the TReportBatchAck plaintext: a signed part (batch
// nonce + statuses, plus — only for admission bounces — the trailing-optional
// demanded proof-of-work difficulty) followed by the agent's SP and
// signature, exactly the shape of a trust response. The difficulty is inside
// the signed part so a relay cannot inflate the work it asks of a reporter.
// Sealed to the reporter's anonymity key by the caller.
func encodeBatchAck(self *pkc.Identity, nonce pkc.Nonce, statuses []ReportStatus, bits int) []byte {
	raw := make([]byte, len(statuses))
	for i, s := range statuses {
		raw[i] = byte(s)
	}
	var body wire.Encoder
	body.Bytes(nonce[:])
	body.Bytes(raw)
	if bits > 0 {
		body.U64(uint64(bits))
	}
	signedPart := body.Encode()
	sig := self.SignMessage(signedPart)
	var e wire.Encoder
	e.Bytes(signedPart).Bytes(self.Sign.Public).Bytes(sig)
	return e.Encode()
}

// decodedBatchAck is a parsed TReportBatchAck plaintext, before signature
// verification (the caller matches sp against the awaited agent first).
type decodedBatchAck struct {
	signedPart []byte
	sp         []byte
	sig        []byte
	nonce      pkc.Nonce
	raw        []byte // one status byte per report
	bits       int    // demanded admission difficulty (0 when absent)
}

// decodeBatchAck parses a TReportBatchAck plaintext written by
// encodeBatchAck, including the trailing-optional admission difficulty.
func decodeBatchAck(plain []byte) (decodedBatchAck, error) {
	d := wire.NewDecoder(plain)
	var a decodedBatchAck
	a.signedPart = d.Bytes()
	a.sp = d.Bytes()
	a.sig = d.Bytes()
	if err := d.Finish(); err != nil {
		return decodedBatchAck{}, err
	}
	b := wire.NewDecoder(a.signedPart)
	nonceRaw := b.Bytes()
	a.raw = b.Bytes()
	if b.More() {
		bits := b.U64()
		if bits == 0 || bits > 256 {
			return decodedBatchAck{}, ErrBadMessage
		}
		a.bits = int(bits)
	}
	if err := b.Finish(); err != nil {
		return decodedBatchAck{}, err
	}
	if len(nonceRaw) != pkc.NonceSize {
		return decodedBatchAck{}, ErrBadMessage
	}
	copy(a.nonce[:], nonceRaw)
	return a, nil
}

// batchAck is one settled ack: the per-report statuses plus the admission
// difficulty demanded by the agent (0 unless the batch was bounced).
type batchAck struct {
	statuses []ReportStatus
	bits     int
}

// batchAckWait is one outstanding batch awaiting its ack.
type batchAckWait struct {
	sp    ed25519.PublicKey // agent expected to sign the ack
	count int               // statuses the ack must carry
	ch    chan batchAck
}

// ReportBatch sends a batch of signed transaction reports to agent through
// its onion as one TReportBatch frame and waits for the per-report ack
// returned through replyOnion (DESIGN.md §11). The returned statuses are
// index-aligned with reports. Transient failures (a dead entry relay, a shed
// or lost frame, an ack timeout) are retried under the node's retry policy;
// every attempt re-signs each report with a fresh nonce, so a retry is never
// misread as a replay. Protocol-level rejections are permanent.
//
// Unlike ReportTransaction, a nil error means the agent acknowledged the
// batch — each report's fate is in its status, not assumed.
func (n *Node) ReportBatch(agent AgentInfo, reports []BatchReport, replyOnion *onion.Onion) ([]ReportStatus, error) {
	if len(reports) == 0 {
		return nil, nil
	}
	if len(reports) > MaxBatchReports {
		return nil, ErrBatchTooLarge
	}
	var ack batchAck
	send := func(sol []byte) error {
		return n.retrier.Do(func(_ int, perAttempt time.Duration) error {
			var aerr error
			ack, aerr = n.reportBatchOnce(agent, reports, replyOnion, sol, n.attemptBudget(perAttempt))
			if errors.Is(aerr, ErrClosed) || errors.Is(aerr, ErrBadAgent) {
				return resilience.Permanent(aerr)
			}
			return aerr
		})
	}
	err := send(nil)
	if err == nil && ack.bits > 0 && allAdmissionRequired(ack.statuses) {
		// The agent's sybil-admission gate bounced us (§13): mint a solution
		// bound to our nodeID at the demanded difficulty and retry once with
		// it attached. A nil solution (difficulty beyond the solve limit)
		// leaves the admission-required statuses for the caller to defer.
		if sol := n.mintAdmission(ack.bits); sol != nil {
			err = send(sol)
		}
	}
	return ack.statuses, err
}

// reportBatchOnce runs one complete batch/ack exchange under wait.
func (n *Node) reportBatchOnce(agent AgentInfo, reports []BatchReport, replyOnion *onion.Onion, sol []byte, wait time.Duration) (batchAck, error) {
	if n.isClosed() {
		return batchAck{}, ErrClosed
	}
	if err := n.memo.VerifySig(agent.Onion, agent.SP); err != nil {
		return batchAck{}, resilience.Permanent(fmt.Errorf("node: agent onion: %w", err))
	}
	nonce, err := pkc.NewNonce(nil)
	if err != nil {
		return batchAck{}, err
	}
	self := n.identity()
	wires := make([][]byte, len(reports))
	for i, r := range reports {
		rn, err := pkc.NewNonce(nil)
		if err != nil {
			return batchAck{}, err
		}
		wires[i] = agentdir.SignReport(self, r.Subject, r.Positive, rn)
	}
	sealed, err := pkc.Seal(agent.AP, encodeReportBatch(self, nonce, replyOnion, wires, sol), nil)
	if err != nil {
		return batchAck{}, err
	}
	ch := make(chan batchAck, 1)
	n.mu.Lock()
	n.pendingAcks[nonce] = &batchAckWait{sp: agent.SP, count: len(reports), ch: ch}
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.pendingAcks, nonce)
		n.mu.Unlock()
	}()
	if err := n.sendThroughOnionTimeout(agent.Onion, wire.TReportBatch, sealed, wait); err != nil {
		return batchAck{}, err
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case ack := <-ch:
		return ack, nil
	case <-timer.C:
		return batchAck{}, ErrTimeout
	}
}

// ReportBatchOrDefer is the resilient form of ReportBatch: it chunks reports
// to the node's batch size, reconciles every ack status into the sender's
// counters — stored reports count as acked, protocol rejects as rejected —
// and routes retryable outcomes (an unreachable or saturated agent, a store
// failure, a lost ack) into the durable outbox, where the flusher re-sends
// them once the agent recovers. Nothing is silently dropped: acked +
// rejected + deferred always adds up to len(reports).
func (n *Node) ReportBatchOrDefer(book *AgentBook, agent AgentInfo, reports []BatchReport, replyOnion *onion.Onion) error {
	id := agent.ID()
	size := n.batchSize()
	var firstErr error
	for len(reports) > 0 {
		chunk := reports
		if len(chunk) > size {
			chunk = chunk[:size]
		}
		reports = reports[len(chunk):]
		if book != nil && book.BreakerState(id) != resilience.BreakerClosed {
			n.deferBatch(agent, chunk)
			continue
		}
		statuses, err := n.ReportBatch(agent, chunk, replyOnion)
		if err != nil {
			n.noteFailure(book, id)
			n.deferBatch(agent, chunk)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		n.noteSuccess(book, id)
		n.reconcileAck(agent, chunk, statuses)
		if allAdmissionRequired(statuses) {
			// The gate bounced the chunk and ReportBatch could not solve the
			// demanded difficulty; every further chunk would bounce the same
			// way. Defer the remainder and let the flusher retry later.
			n.deferBatch(agent, reports)
			break
		}
		if allSaturated(statuses) {
			// The agent shed the whole chunk before verifying anything: its
			// admission queue is full, and firing the remaining chunks at it
			// would only re-defer every report and spin this loop hot against
			// a saturated peer. Defer the remainder in one step and let the
			// flusher retry on its backoff cadence.
			n.deferBatch(agent, reports)
			break
		}
	}
	return firstErr
}

// allSaturated reports whether an ack shed its entire (non-empty) batch at
// admission.
func allSaturated(statuses []ReportStatus) bool {
	for _, st := range statuses {
		if st != StatusSaturated {
			return false
		}
	}
	return len(statuses) > 0
}

// reconcileAck folds one ack into the sender-side counters, deferring
// retryable statuses back into the outbox. A wrong-owner status additionally
// marks the placement map stale: the agent routed by a newer epoch than we
// hold, and the flusher refreshes before re-routing the deferred report.
func (n *Node) reconcileAck(agent AgentInfo, chunk []BatchReport, statuses []ReportStatus) {
	for i, st := range statuses {
		switch {
		case st == StatusStored:
			n.stats.reportsAcked.Add(1)
			n.cnt.reportsAcked.Inc()
		case st.Retryable():
			if st == StatusWrongOwner {
				n.markPlacementStale()
			}
			n.deferReport(agent, chunk[i].Subject, chunk[i].Positive)
		case st == StatusAdmissionRequired:
			// ReportBatch already tried to solve; landing here means the
			// demanded difficulty exceeds our solve limit (or minting
			// failed). Defer rather than reject: the outbox retries on its
			// backoff cadence, and succeeds if the operator raises the limit
			// or the agent lowers its gate.
			n.deferReport(agent, chunk[i].Subject, chunk[i].Positive)
		default:
			n.stats.reportsRejected.Add(1)
			n.cnt.reportsRejected.Inc()
		}
	}
}

// deferBatch queues every report of a chunk for the outbox flusher.
func (n *Node) deferBatch(agent AgentInfo, chunk []BatchReport) {
	for _, r := range chunk {
		n.deferReport(agent, r.Subject, r.Positive)
	}
}

// batchSize returns the node's report batch size (thread-safe).
func (n *Node) batchSize() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.opts.ReportBatchSize
}

// SetReplyOnion gives the node a standing reply onion of its own, enabling
// acknowledged, batched outbox flushes: with one attached, the flusher
// groups deferred reports per agent into TReportBatch frames and retires
// each entry on its acked status instead of firing single reports blind.
func (n *Node) SetReplyOnion(o *onion.Onion) {
	n.mu.Lock()
	n.ackOnion = o
	n.mu.Unlock()
	n.kickFlush()
}

// replyOnionForFlush returns the attached standing reply onion, if any.
func (n *Node) replyOnionForFlush() *onion.Onion {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ackOnion
}

// --- agent side ----------------------------------------------------------

// ingestJob is one decoded, admission-accepted batch awaiting verification.
type ingestJob struct {
	self       *pkc.Identity // identity that opened the batch; signs the ack
	reporter   pkc.NodeID
	ap         *ecdh.PublicKey
	nonce      pkc.Nonce
	replyOnion *onion.Onion
	reports    [][]byte
}

// ingestPool is the agent's verification worker pool with a bounded
// admission queue in front: handlers enqueue decoded batches without
// blocking, workers batch-verify and commit them, and a full queue sheds
// with an all-saturated ack — typed backpressure the sender's retrier and
// outbox understand, instead of unbounded queueing or a silent drop.
type ingestPool struct {
	jobs chan ingestJob
	quit chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

func (n *Node) startIngestPool(workers, queue int) {
	p := &ingestPool{
		jobs: make(chan ingestJob, queue),
		quit: make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				select {
				case <-p.quit:
					return
				case job := <-p.jobs:
					n.processReportBatch(job)
				}
			}
		}()
	}
	n.ingest = p
}

// stop halts the workers; queued jobs are abandoned (their senders see an
// ack timeout and defer, exactly as for a crash at that instant). Idempotent
// so tests stopping the pool to force saturation don't trip Close.
func (p *ingestPool) stop() {
	p.once.Do(func() { close(p.quit) })
	p.wg.Wait()
}

// handleReportBatch admits one TReportBatch arriving through this agent's
// onion: decode, register the self-certifying reporter key (§3.5.2, as for
// trust requests), authenticate the reply onion, then hand the batch to the
// verification pool — or shed with an all-saturated ack when the pool's
// admission queue is full.
func (n *Node) handleReportBatch(sealed []byte) {
	if n.agent == nil || n.ingest == nil {
		return
	}
	self, plain, ok := n.openAny(sealed)
	if !ok {
		return
	}
	b, err := decodeReportBatch(plain)
	if err != nil {
		// A batch that does not decode — including the empty batch, rejected
		// at the codec so it never occupies a verification-pool slot — is
		// counted as malformed rather than silently vanishing.
		n.countIngest(StatusMalformed)
		return
	}
	reporter := pkc.DeriveNodeID(b.sp)
	// The reply onion must be signed by the reporter and non-stale; without
	// this an attacker could use the agent as an ack reflector.
	if err := n.memo.VerifySig(b.replyOnion, b.sp); err != nil {
		return
	}
	n.mu.Lock()
	ageErr := n.ages.Accept(reporter, b.replyOnion)
	n.mu.Unlock()
	if ageErr != nil {
		return
	}
	// Sybil-admission gate (§13), deliberately BEFORE RegisterKey — an
	// unadmitted identity must not even occupy a key-table slot — and before
	// the verification pool, so a bounced batch costs this agent one SHA-256
	// over the claimed solution instead of N Ed25519 verifies. The whole
	// batch bounces with StatusAdmissionRequired plus the demanded
	// difficulty; the sender solves and retries.
	if g := n.admission; g != nil {
		verdict := g.check(reporter, b.sol, len(b.reports))
		if !verdict.passed() {
			switch verdict {
			case admissionReplay:
				n.stats.admissionReplayed.Add(1)
				n.cnt.admissionReplayed.Inc()
			case admissionThrottled:
				n.stats.admissionThrottled.Add(1)
				n.cnt.admissionThrottled.Inc()
			}
			n.stats.admissionRequired.Add(int64(len(b.reports)))
			n.cnt.admissionRequired.Add(int64(len(b.reports)))
			statuses := make([]ReportStatus, len(b.reports))
			for i := range statuses {
				statuses[i] = StatusAdmissionRequired
			}
			n.sendBatchAck(ingestJob{
				self: self, reporter: reporter, ap: b.ap,
				nonce: b.nonce, replyOnion: b.replyOnion, reports: b.reports,
			}, statuses, g.bits)
			return
		}
		if verdict == admissionNewlyOK {
			n.stats.admissionAdmitted.Add(1)
			n.cnt.admissionAdmitted.Inc()
		}
	}
	if err := n.agent.RegisterKey(reporter, b.sp); err != nil {
		return
	}
	job := ingestJob{
		self:       self,
		reporter:   reporter,
		ap:         b.ap,
		nonce:      b.nonce,
		replyOnion: b.replyOnion,
		reports:    b.reports,
	}
	select {
	case n.ingest.jobs <- job:
	default:
		// Admission control: the verification backlog is full. Shed the whole
		// batch before spending any signature check on it, and say so — the
		// sender re-queues saturated reports through its outbox.
		n.stats.ingestShed.Add(int64(len(job.reports)))
		n.cnt.ingestShed.Add(int64(len(job.reports)))
		statuses := make([]ReportStatus, len(job.reports))
		for i := range statuses {
			statuses[i] = StatusSaturated
		}
		n.sendBatchAck(job, statuses, 0)
	}
}

// processReportBatch is the worker body: filter out reports this group does
// not own (cheap subject peek, before any signature work), batch-verify and
// commit the rest, count every outcome by reason, and return the ack.
func (n *Node) processReportBatch(job ingestJob) {
	statuses := make([]ReportStatus, len(job.reports))
	owned := make([][]byte, 0, len(job.reports))
	idx := make([]int, 0, len(job.reports))
	for i, rw := range job.reports {
		subject, err := agentdir.DecodeSubjectHint(rw)
		if err != nil {
			statuses[i] = StatusMalformed
			n.countIngest(statuses[i])
			continue
		}
		if write, _ := n.subjectOwnership(subject); !write {
			statuses[i] = StatusWrongOwner
			n.countIngest(statuses[i])
			continue
		}
		owned = append(owned, rw)
		idx = append(idx, i)
	}
	if len(owned) > 0 {
		_, errs := n.agent.SubmitReportBatch(job.reporter, owned)
		for j, err := range errs {
			statuses[idx[j]] = statusFromSubmitError(err)
			n.countIngest(statuses[idx[j]])
		}
	}
	n.stats.reportBatches.Add(1)
	n.sendBatchAck(job, statuses, 0)
}

// sendBatchAck signs, seals, and routes one per-report ack back through the
// reporter's reply onion. bits, when positive, is the admission difficulty
// demanded of a bounced batch.
func (n *Node) sendBatchAck(job ingestJob, statuses []ReportStatus, bits int) {
	if n.isClosed() {
		return
	}
	sealed, err := pkc.Seal(job.ap, encodeBatchAck(job.self, job.nonce, statuses, bits), nil)
	if err != nil {
		return
	}
	_ = n.sendThroughOnion(job.replyOnion, wire.TReportBatchAck, sealed)
}

// handleReportBatchAck consumes an ack arriving through this node's own
// onion and routes it to the waiting ReportBatch call.
func (n *Node) handleReportBatchAck(sealed []byte) {
	_, plain, ok := n.openAny(sealed)
	if !ok {
		return
	}
	a, err := decodeBatchAck(plain)
	if err != nil {
		return
	}
	n.mu.Lock()
	w := n.pendingAcks[a.nonce]
	n.mu.Unlock()
	if w == nil || len(a.raw) != w.count {
		return
	}
	// Only the agent the batch was addressed to may settle it.
	if !bytes.Equal(a.sp, w.sp) || !pkc.Verify(w.sp, a.signedPart, a.sig) {
		return
	}
	statuses := make([]ReportStatus, len(a.raw))
	for i, v := range a.raw {
		statuses[i] = ReportStatus(v)
	}
	select {
	case w.ch <- batchAck{statuses: statuses, bits: a.bits}:
	default:
	}
}

// statusFromSubmitError maps an agentdir.SubmitReport(Batch) outcome to its
// ack status. Anything that is not a recognized protocol reject is a store
// failure: real storage trouble must surface as retryable, never be
// conflated with a reject.
func statusFromSubmitError(err error) ReportStatus {
	switch {
	case err == nil:
		return StatusStored
	case errors.Is(err, repstore.ErrShardSealed):
		// The shard was sealed for handoff after this batch passed the
		// admission-time ownership check: the report is NOT in the sealed
		// export, so it must not ack stored. Wrong-owner sends it through the
		// outbox, which re-routes it to the new owner by the refreshed map.
		return StatusWrongOwner
	case errors.Is(err, agentdir.ErrReplayedReport):
		return StatusReplay
	case errors.Is(err, agentdir.ErrUnknownReporter),
		errors.Is(err, agentdir.ErrBadSignature),
		errors.Is(err, agentdir.ErrBadBinding):
		return StatusBadKey
	case errors.Is(err, agentdir.ErrBadReport):
		return StatusMalformed
	default:
		return StatusStoreFailed
	}
}

// countIngest counts one report's ingest outcome by reason, in both the
// node stats and the metrics registry (the hirepnode shutdown table).
func (n *Node) countIngest(st ReportStatus) {
	switch st {
	case StatusStored:
		n.stats.reportsStored.Add(1)
	case StatusReplay:
		n.stats.ingestRejectedReplay.Add(1)
		n.cnt.ingestRejectedReplay.Inc()
	case StatusBadKey:
		n.stats.ingestRejectedKey.Add(1)
		n.cnt.ingestRejectedKey.Inc()
	case StatusMalformed:
		n.stats.ingestRejectedMalformed.Add(1)
		n.cnt.ingestRejectedMalformed.Inc()
	case StatusStoreFailed:
		n.stats.ingestStoreFailed.Add(1)
		n.cnt.ingestStoreFailed.Inc()
	case StatusSaturated:
		n.stats.ingestShed.Add(1)
		n.cnt.ingestShed.Inc()
	case StatusWrongOwner:
		n.stats.ingestRejectedWrongOwner.Add(1)
		n.cnt.ingestRejectedWrongOwner.Inc()
	}
}
