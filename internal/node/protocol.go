package node

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math"
	"time"

	"hirep/internal/agentdir"
	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/resilience"
	"hirep/internal/trust"
	"hirep/internal/wire"
)

// This file implements the client side of the live protocol (§3.3, §3.5) and
// the agent-side handlers for trust requests and reports.

// FetchAnonKey runs the complete Figure 3 handshake against a relay at
// relayAddr and returns the verified relay descriptor for onion building. A
// relay whose key fails confirmation must be discarded (§3.3).
func (n *Node) FetchAnonKey(relayAddr string) (onion.Relay, error) {
	if n.isClosed() {
		return onion.Relay{}, ErrClosed
	}
	self := n.identity()
	// 1 -> 2.
	req := onion.EncodeRelayRequest(onion.RelayRequest{AP: self.Anon.Public, Addr: n.Addr()})
	typ, respWire, err := n.roundTrip(relayAddr, wire.TRelayRequest, req)
	if err != nil {
		return onion.Relay{}, fmt.Errorf("node: relay request: %w", err)
	}
	if typ != wire.TRelayResponse {
		return onion.Relay{}, fmt.Errorf("%w: expected relay response, got %v", ErrBadMessage, typ)
	}
	resp, err := onion.OpenRelayResponse(self, respWire)
	if err != nil {
		return onion.Relay{}, err
	}
	// 3 -> 4.
	verify, err := onion.BuildKeyVerify(self, n.Addr(), resp, nil)
	if err != nil {
		return onion.Relay{}, err
	}
	typ, confirm, err := n.roundTrip(relayAddr, wire.TKeyVerify, verify)
	if err != nil {
		return onion.Relay{}, fmt.Errorf("node: key verify: %w", err)
	}
	if typ != wire.TKeyConfirm {
		return onion.Relay{}, fmt.Errorf("%w: expected key confirm, got %v", ErrBadMessage, typ)
	}
	if err := onion.OpenConfirm(self, resp.Nonce, confirm); err != nil {
		return onion.Relay{}, fmt.Errorf("node: relay key invalid: %w", err)
	}
	return onion.Relay{Addr: resp.Addr, AP: resp.AP}, nil
}

// BuildOnion constructs a fresh signed onion for this node over the verified
// relays (outermost first).
func (n *Node) BuildOnion(route []onion.Relay) (*onion.Onion, error) {
	return onion.Build(n.identity(), n.Addr(), route, n.nextSeq(), nil)
}

// Info returns this node's published descriptor given a fresh onion; agents
// hand it to peers who select them.
func (n *Node) Info(o *onion.Onion) AgentInfo {
	self := n.identity()
	return AgentInfo{SP: self.Sign.Public, AP: self.Anon.Public, Onion: o}
}

// sendThroughOnion wraps a sealed payload in an onion envelope and injects it
// at the onion's entry relay, retrying transient entry-relay failures.
func (n *Node) sendThroughOnion(o *onion.Onion, innerType wire.MsgType, sealed []byte) error {
	var e wire.Encoder
	e.Bytes(o.Blob).U64(uint64(innerType)).Bytes(sealed)
	return n.send(o.Entry, wire.TOnion, e.Encode())
}

// sendThroughOnionTimeout is sendThroughOnion as a single attempt under an
// explicit budget, for callers running their own retry loop.
func (n *Node) sendThroughOnionTimeout(o *onion.Onion, innerType wire.MsgType, sealed []byte, budget time.Duration) error {
	var e wire.Encoder
	e.Bytes(o.Blob).U64(uint64(innerType)).Bytes(sealed)
	return n.sendTimeout(o.Entry, wire.TOnion, e.Encode(), budget)
}

// RequestTrust asks agent for its trust value of subject (§3.5.1/§3.5.2).
// replyOnion is this node's own onion, through which the agent answers. The
// returned hasData is false when the agent has no reports about the subject.
// Transient failures (an unreachable entry relay, a lost response) are
// retried under the node's retry policy with a fresh nonce per attempt.
func (n *Node) RequestTrust(agent AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion) (trust.Value, bool, error) {
	return n.requestTrust(agent, subject, replyOnion, 0, n.timeout())
}

// requestTrust is RequestTrust with the attempt budget and response wait
// exposed: attempts <= 0 uses the retry policy's budget; probes pass 1 and a
// short wait. Protocol-level rejections (a bad agent signature, a closed
// node) are permanent and never retried.
func (n *Node) requestTrust(agent AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion, attempts int, wait time.Duration) (trust.Value, bool, error) {
	var (
		v       trust.Value
		hasData bool
	)
	err := n.retrier.DoMax(attempts, func(_ int, _ time.Duration) error {
		var aerr error
		v, hasData, aerr = n.requestTrustOnce(agent, subject, replyOnion, wait)
		if errors.Is(aerr, ErrClosed) || errors.Is(aerr, ErrBadAgent) || errors.Is(aerr, ErrWrongOwner) {
			return resilience.Permanent(aerr)
		}
		return aerr
	})
	return v, hasData, err
}

// requestTrustOnce runs one complete request/response exchange: send the
// sealed request through the agent's onion and wait up to wait for the
// response to arrive back through replyOnion.
func (n *Node) requestTrustOnce(agent AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion, wait time.Duration) (trust.Value, bool, error) {
	if n.isClosed() {
		return 0, false, ErrClosed
	}
	if err := n.memo.VerifySig(agent.Onion, agent.SP); err != nil {
		return 0, false, resilience.Permanent(fmt.Errorf("node: agent onion: %w", err))
	}
	nonce, err := pkc.NewNonce(nil)
	if err != nil {
		return 0, false, err
	}
	// Plaintext request: SP_p, AP_p, subject, nonce, reply onion — then
	// sealed to the agent's anonymity key (the paper's SP_e(R) encryption).
	self := n.identity()
	var e wire.Encoder
	e.Bytes(self.Sign.Public)
	e.Bytes(self.Anon.Public.Bytes())
	e.Bytes(subject[:])
	e.Bytes(nonce[:])
	encodeOnion(&e, replyOnion)
	sealed, err := pkc.Seal(agent.AP, e.Encode(), nil)
	if err != nil {
		return 0, false, err
	}
	ch := make(chan trustResponse, 1)
	n.mu.Lock()
	n.pending[nonce] = ch
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.pending, nonce)
		n.mu.Unlock()
	}()
	// Single-attempt send: the enclosing requestTrust loop owns retries, so a
	// dead entry relay costs one dial here, not a nested retry storm.
	if err := n.sendThroughOnionTimeout(agent.Onion, wire.TTrustReq, sealed, wait); err != nil {
		return 0, false, err
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case resp := <-ch:
		if resp.subject != subject {
			return 0, false, ErrBadAgent
		}
		if resp.wrongOwner {
			// The agent's group does not own this subject under its placement
			// epoch: a routing miss, not an answer. The routed caller
			// refreshes its map and re-asks the owner.
			return 0, false, ErrWrongOwner
		}
		return resp.value, resp.hasData, nil
	case <-timer.C:
		return 0, false, ErrTimeout
	}
}

// ReportTransaction sends a signed transaction report about subject to agent
// through its onion (§3.5.3).
func (n *Node) ReportTransaction(agent AgentInfo, subject pkc.NodeID, positive bool) error {
	if n.isClosed() {
		return ErrClosed
	}
	nonce, err := pkc.NewNonce(nil)
	if err != nil {
		return err
	}
	self := n.identity()
	reportWire := agentdir.SignReport(self, subject, positive, nonce)
	var e wire.Encoder
	e.Bytes(self.ID[:])
	e.Bytes(reportWire)
	sealed, err := pkc.Seal(agent.AP, e.Encode(), nil)
	if err != nil {
		return err
	}
	return n.sendThroughOnion(agent.Onion, wire.TReport, sealed)
}

// --- agent-side handlers -------------------------------------------------

// handleTrustReq serves a trust-value request arriving through this agent's
// onion (§3.5.2).
func (n *Node) handleTrustReq(sealed []byte) {
	if n.agent == nil {
		return
	}
	// Open with whichever of our identities the requestor sealed to (it may
	// hold a pre-rotation descriptor) and answer under that same identity so
	// its signature check passes.
	self, plain, ok := n.openAny(sealed)
	if !ok {
		return
	}
	d := wire.NewDecoder(plain)
	spRaw := append([]byte(nil), d.Bytes()...)
	apRaw := d.Bytes()
	subjRaw := d.Bytes()
	nonceRaw := d.Bytes()
	replyOnion, onionErr := decodeOnion(d)
	if d.Finish() != nil || onionErr != nil {
		return
	}
	if len(spRaw) != ed25519.PublicKeySize || len(subjRaw) != pkc.NodeIDSize || len(nonceRaw) != pkc.NonceSize {
		return
	}
	requestorSP := ed25519.PublicKey(spRaw)
	requestorAP, err := ecdh.X25519().NewPublicKey(apRaw)
	if err != nil {
		return
	}
	requestorID := pkc.DeriveNodeID(requestorSP)
	// §3.5.2: "E will add the nodeid and public key of P to its public key
	// list if P's nodeid is not in the list."
	if err := n.agent.RegisterKey(requestorID, requestorSP); err != nil {
		return
	}
	// The reply onion must be signed by the requestor and non-stale.
	if err := n.memo.VerifySig(replyOnion, requestorSP); err != nil {
		return
	}
	n.mu.Lock()
	ageErr := n.ages.Accept(requestorID, replyOnion)
	n.mu.Unlock()
	if ageErr != nil {
		return
	}
	var subject pkc.NodeID
	copy(subject[:], subjRaw)
	// Routed overlay (DESIGN.md §12): a subject outside this group's shards
	// gets a signed wrong-owner answer instead of a tally — this agent may
	// hold a partial (or no) view of it, and serving that would be worse
	// than redirecting the requestor to the owner.
	var (
		value      trust.Value
		hasData    bool
		wrongOwner bool
	)
	if _, read := n.subjectOwnership(subject); !read {
		wrongOwner = true
		value = 0.5
		n.stats.placementRedirects.Add(1)
		n.cnt.placementRedirects.Inc()
	} else {
		value, hasData = n.agent.TrustValue(subject)
		if !hasData {
			value = 0.5 // no reports: uninformed prior, flagged to the requestor
		}
	}
	// Response: subject, value, hasData, nonce, then — only when set — the
	// wrong-owner flag, SP_e, signature; sealed to the requestor's anonymity
	// key and routed through its onion. The flag is trailing-optional for
	// version compatibility: a pre-overlay responder never emits it and a
	// pre-overlay requestor never receives it (ordinary answers keep the
	// original shape), so mixed-version fleets only diverge on an actual
	// wrong-owner redirect, which old requestors could not act on anyway.
	var body wire.Encoder
	body.Bytes(subject[:])
	body.U64(math.Float64bits(float64(value)))
	body.Bool(hasData)
	body.Bytes(nonceRaw)
	if wrongOwner {
		body.Bool(true)
	}
	signedPart := body.Encode()
	sig := self.SignMessage(signedPart)
	var e wire.Encoder
	e.Bytes(signedPart).Bytes(self.Sign.Public).Bytes(sig)
	sealedResp, err := pkc.Seal(requestorAP, e.Encode(), nil)
	if err != nil {
		return
	}
	if !wrongOwner {
		// A wrong-owner answer is a routing redirect, not a served value;
		// it is counted in placementRedirects above instead.
		n.stats.trustServed.Add(1)
	}
	_ = n.sendThroughOnion(replyOnion, wire.TTrustResp, sealedResp)
}

// handleTrustResp consumes a trust response arriving through this node's own
// onion and routes it to the waiting request.
func (n *Node) handleTrustResp(sealed []byte) {
	_, plain, ok := n.openAny(sealed)
	if !ok {
		return
	}
	d := wire.NewDecoder(plain)
	signedPart := d.Bytes()
	agentSP := d.Bytes()
	sig := d.Bytes()
	if d.Finish() != nil {
		return
	}
	if len(agentSP) != ed25519.PublicKeySize || !pkc.Verify(ed25519.PublicKey(agentSP), signedPart, sig) {
		return
	}
	b := wire.NewDecoder(signedPart)
	subjRaw := b.Bytes()
	bits := b.U64()
	hasData := b.Bool()
	nonceRaw := b.Bytes()
	// Trailing-optional (see handleTrustReq): absent on ordinary answers and
	// on responses from pre-overlay agents, present only on a redirect.
	wrongOwner := false
	if b.More() {
		wrongOwner = b.Bool()
	}
	if b.Finish() != nil || len(subjRaw) != pkc.NodeIDSize || len(nonceRaw) != pkc.NonceSize {
		return
	}
	var subject pkc.NodeID
	var nonce pkc.Nonce
	copy(subject[:], subjRaw)
	copy(nonce[:], nonceRaw)
	value := trust.Value(math.Float64frombits(bits))
	if !value.Valid() {
		return
	}
	n.mu.Lock()
	ch := n.pending[nonce]
	n.mu.Unlock()
	if ch != nil {
		select {
		case ch <- trustResponse{subject: subject, value: value, hasData: hasData, wrongOwner: wrongOwner}:
		default:
		}
	}
}

// handleReport stores a signed transaction report (§3.5.3).
func (n *Node) handleReport(sealed []byte) {
	if n.agent == nil {
		return
	}
	_, plain, ok := n.openAny(sealed)
	if !ok {
		return
	}
	d := wire.NewDecoder(plain)
	idRaw := d.Bytes()
	reportWire := d.Bytes()
	if d.Finish() != nil || len(idRaw) != pkc.NodeIDSize {
		return
	}
	var reporter pkc.NodeID
	copy(reporter[:], idRaw)
	// Routed overlay: a mis-routed report must not enter this group's store
	// — the owner would never learn of it and the tally would fork. On this
	// unacked legacy path the drop is only countable, not correctable; the
	// batched path answers StatusWrongOwner so the sender re-routes.
	if subject, err := agentdir.DecodeSubjectHint(reportWire); err == nil {
		if write, _ := n.subjectOwnership(subject); !write {
			n.countIngest(StatusWrongOwner)
			return
		}
	}
	// Rejections used to be dropped on the floor here; count every outcome
	// by reason so replayed, mis-keyed, and store-failed reports are visible
	// in the stats and the metrics registry even on this unacked path.
	_, err := n.agent.SubmitReport(reporter, reportWire)
	n.countIngest(statusFromSubmitError(err))
}

// encodeOnion serializes an onion into an encoder.
func encodeOnion(e *wire.Encoder, o *onion.Onion) {
	e.String(o.Entry).Bytes(o.Blob).U64(o.Seq).Bytes(o.Sig)
}

// decodeOnion reads an onion written by encodeOnion.
func decodeOnion(d *wire.Decoder) (*onion.Onion, error) {
	o := &onion.Onion{
		Entry: d.String(),
		Blob:  append([]byte(nil), d.Bytes()...),
		Seq:   d.U64(),
		Sig:   append([]byte(nil), d.Bytes()...),
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if o.Entry == "" || len(o.Blob) == 0 {
		return nil, ErrBadMessage
	}
	return o, nil
}
