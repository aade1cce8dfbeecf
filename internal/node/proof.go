package node

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"time"

	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/proof"
	"hirep/internal/resilience"
	"hirep/internal/wire"
)

// This file carries the verifiable-read subsystem (internal/proof,
// DESIGN.md §14) over the live protocol. A TProofReq travels exactly like a
// trust request — sealed to the responder's anonymity key, routed through its
// onion, answered through the requestor's reply onion — but the answer is a
// self-verifying proof bundle (or a compact signed trust snapshot) instead of
// a bare tally. Because the bundle's integrity rests on the issuing agent's
// signature rather than on who served it, the same frames can be answered by
// an untrusted edge cache: a node configured with ConfigureProofEdge serves
// cached payload bytes without touching any agent, and the client's
// verification catches any alteration.

// Proof response kinds carried in the TProofResp signed part.
const (
	proofKindBundle     = 1 // payload is an encoded proof.Bundle
	proofKindSnapshot   = 2 // payload is an encoded proof.TrustSnapshot
	proofKindWrongOwner = 3 // routing miss: responder's group does not own the subject
)

// defaultSnapshotTTL bounds a snapshot's validity (and a proof cache entry's
// lifetime) when Options.SnapshotTTL is unset. The TTL is the only freshness
// an edge can degrade: it cannot alter a payload, only re-serve one.
const defaultSnapshotTTL = 60 * time.Second

// snapshotClockSkew is how far the client's clock may run ahead of the
// issuing agent's before freshly issued snapshots are misjudged as expired.
// Expires is stamped by the agent but checked against the client's wall
// clock, so with zero tolerance a client a few seconds fast would fail every
// fetch with a permanent (non-retried) ErrBadAgent. The allowance extends a
// snapshot's effective lifetime by the same amount — snapshot freshness
// assumes loosely synchronized clocks.
const snapshotClockSkew = 30 * time.Second

// proofResp is one decoded, outer-signature-verified proof response.
type proofResp struct {
	subject pkc.NodeID
	kind    uint64
	payload []byte
}

// proofWait is one outstanding proof request: the responder key the requestor
// addressed (the outer response signature must be by exactly that key — for
// an edge that is the edge's own key, the inner bundle staying the agent's)
// and the delivery channel.
type proofWait struct {
	sp ed25519.PublicKey
	ch chan proofResp
}

// proofCache is the bounded FIFO payload cache behind Options.ProofCache.
// Entries are the exact signed payload bytes served before — re-serving them
// cannot forge anything, which is the whole §14 point — and expire on the
// snapshot TTL so a cache's staleness is bounded by the same knob as a
// snapshot's.
type proofCache struct {
	mu    sync.Mutex
	cap   int
	ttl   time.Duration
	m     map[string]proofCacheEntry
	order []string // FIFO eviction order
}

type proofCacheEntry struct {
	payload []byte
	expires time.Time
}

func newProofCache(capacity int, ttl time.Duration) *proofCache {
	return &proofCache{cap: capacity, ttl: ttl, m: make(map[string]proofCacheEntry)}
}

func proofCacheKey(subject pkc.NodeID, kind uint64) string {
	return string(subject[:]) + string([]byte{byte(kind)})
}

func (c *proofCache) get(key string, now time.Time) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok || now.After(e.expires) {
		return nil, false
	}
	return e.payload, true
}

// put stores a payload until expires. An overwritten key moves to the back
// of the eviction order — a hot, freshly re-written entry must not be the
// next "oldest" evicted while stale keys keep their slots.
func (c *proofCache) put(key string, payload []byte, expires time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.m[key]; exists {
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
	} else {
		for len(c.order) >= c.cap {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.m, oldest)
		}
	}
	c.order = append(c.order, key)
	c.m[key] = proofCacheEntry{payload: payload, expires: expires}
}

// SetProofTamper installs a hook mutating every bundle this agent assembles
// between assembly and signing — the audit harness's lying agent. The agent
// then signs the mutated claim, which is exactly the misbehavior
// proof.Verify pins on it. Nil restores honesty.
func (n *Node) SetProofTamper(fn func(*proof.Bundle)) {
	n.proofMu.Lock()
	n.proofTamper = fn
	n.proofMu.Unlock()
}

// ConfigureProofEdge turns this (non-agent) node into a proof edge cache:
// proof requests it cannot answer from cache are forwarded to upstream —
// or, when upstream is the zero AgentInfo and a placement map is adopted, to
// the subject's owning group — through replyOnion, and the payloads cached
// for ProofCache-bounded re-serving. Requires Options.ProofCache > 0.
func (n *Node) ConfigureProofEdge(upstream AgentInfo, replyOnion *onion.Onion) error {
	if n.proofCache == nil {
		return fmt.Errorf("node: proof edge requires Options.ProofCache > 0")
	}
	n.proofMu.Lock()
	n.edgeUpstream = upstream
	n.edgeOnion = replyOnion
	n.proofMu.Unlock()
	return nil
}

// proofEdgeConfig returns the configured upstream and forwarding onion.
func (n *Node) proofEdgeConfig() (AgentInfo, *onion.Onion) {
	n.proofMu.Lock()
	defer n.proofMu.Unlock()
	return n.edgeUpstream, n.edgeOnion
}

// --- client side -----------------------------------------------------------

// RequestTrustProven asks agent (or an edge cache standing in front of one)
// for a proof bundle about subject, verifies it, and returns both the bundle
// and the verdict. A non-nil error means no authenticated bundle was obtained
// (transport failure, or a response failing verification — ErrBadAgent). With
// a nil error the Result classifies the issuing agent's own signed statement:
// Matching, Partial, or provably Lying — the caller holds the evidence either
// way and need not trust the serving path.
func (n *Node) RequestTrustProven(agent AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion) (*proof.Bundle, proof.Result, error) {
	var (
		b   *proof.Bundle
		res proof.Result
	)
	err := n.retrier.DoMax(0, func(_ int, _ time.Duration) error {
		var aerr error
		b, res, aerr = n.requestTrustProvenOnce(agent, subject, replyOnion)
		if errors.Is(aerr, ErrClosed) || errors.Is(aerr, ErrBadAgent) || errors.Is(aerr, ErrWrongOwner) {
			return resilience.Permanent(aerr)
		}
		return aerr
	})
	return b, res, err
}

func (n *Node) requestTrustProvenOnce(agent AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion) (*proof.Bundle, proof.Result, error) {
	return n.requestTrustProvenWait(agent, subject, replyOnion, n.timeout())
}

// requestTrustProvenWait is requestTrustProvenOnce under an explicit wait
// budget — the auditor's fetch path, where a per-sweep deadline caps each
// probe rather than the node's full request timeout.
func (n *Node) requestTrustProvenWait(agent AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion, wait time.Duration) (*proof.Bundle, proof.Result, error) {
	kind, payload, err := n.requestProofOnce(agent, subject, replyOnion, false, wait)
	if err != nil {
		return nil, proof.Result{}, err
	}
	if kind != proofKindBundle {
		return nil, proof.Result{}, fmt.Errorf("%w: proof response kind %d", ErrBadAgent, kind)
	}
	b, err := proof.DecodeBundle(payload)
	if err != nil {
		return nil, proof.Result{}, fmt.Errorf("%w: %v", ErrBadAgent, err)
	}
	if b.Subject != subject {
		return nil, proof.Result{}, fmt.Errorf("%w: bundle names the wrong subject", ErrBadAgent)
	}
	res, err := proof.Verify(b)
	if err != nil {
		// Unauthenticated: nothing is pinned on anyone — a cache or relay
		// corrupted it, or the responder forged it. Either way, bad answer.
		return nil, proof.Result{}, fmt.Errorf("%w: %v", ErrBadAgent, err)
	}
	n.countProofVerdict(res.Verdict)
	return b, res, nil
}

// RequestTrustSnapshot asks agent (or an edge) for a compact signed trust
// snapshot of subject and verifies its signature and TTL. The snapshot's
// tally is taken on the issuing agent's signature — the classic trust model,
// but portable and cacheable.
func (n *Node) RequestTrustSnapshot(agent AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion) (*proof.TrustSnapshot, error) {
	var ts *proof.TrustSnapshot
	err := n.retrier.DoMax(0, func(_ int, _ time.Duration) error {
		var aerr error
		ts, aerr = n.requestTrustSnapshotOnce(agent, subject, replyOnion)
		if errors.Is(aerr, ErrClosed) || errors.Is(aerr, ErrBadAgent) || errors.Is(aerr, ErrWrongOwner) {
			return resilience.Permanent(aerr)
		}
		return aerr
	})
	return ts, err
}

func (n *Node) requestTrustSnapshotOnce(agent AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion) (*proof.TrustSnapshot, error) {
	kind, payload, err := n.requestProofOnce(agent, subject, replyOnion, true, n.timeout())
	if err != nil {
		return nil, err
	}
	if kind != proofKindSnapshot {
		return nil, fmt.Errorf("%w: proof response kind %d", ErrBadAgent, kind)
	}
	ts, err := proof.DecodeTrustSnapshot(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadAgent, err)
	}
	if ts.Subject != subject {
		return nil, fmt.Errorf("%w: snapshot names the wrong subject", ErrBadAgent)
	}
	if err := ts.Verify(uint64(time.Now().Add(-snapshotClockSkew).Unix())); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadAgent, err)
	}
	return ts, nil
}

// RequestTrustProvenRouted is RequestTrustProven routed by the adopted
// placement map, refreshing and re-routing on wrong-owner answers exactly
// like RequestTrustRouted.
func (n *Node) RequestTrustProvenRouted(subject pkc.NodeID, replyOnion *onion.Onion) (*proof.Bundle, proof.Result, error) {
	for hop := 0; hop < maxOwnerHops; hop++ {
		m, _ := n.Placement()
		if m == nil {
			return nil, proof.Result{}, ErrNoPlacement
		}
		info, err := n.groupInfo(m, m.ReadOwner(subject))
		if err != nil {
			return nil, proof.Result{}, err
		}
		b, res, err := n.RequestTrustProven(info, subject, replyOnion)
		if errors.Is(err, ErrWrongOwner) {
			n.stats.placementRedirects.Add(1)
			n.cnt.placementRedirects.Inc()
			if !n.refreshPlacement() && hop > 0 {
				return nil, proof.Result{}, err
			}
			continue
		}
		return b, res, err
	}
	return nil, proof.Result{}, ErrWrongOwner
}

// requestProofOnce runs one complete proof request/response exchange against
// target and returns the verified-outer response's kind and payload bytes.
// Exposing raw payload bytes (rather than a decoded bundle) is what lets the
// edge cache and re-serve exactly what it received.
func (n *Node) requestProofOnce(target AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion, snapshotOnly bool, wait time.Duration) (uint64, []byte, error) {
	if n.isClosed() {
		return 0, nil, ErrClosed
	}
	if err := n.memo.VerifySig(target.Onion, target.SP); err != nil {
		return 0, nil, resilience.Permanent(fmt.Errorf("node: proof target onion: %w", err))
	}
	nonce, err := pkc.NewNonce(nil)
	if err != nil {
		return 0, nil, err
	}
	self := n.identity()
	// Same shape as a trust request — SP_p, AP_p, subject, nonce, reply onion
	// — plus the trailing-optional snapshot flag (absent = bundle, so a
	// pre-§14 encoding of the prefix stays decodable by this handler).
	var e wire.Encoder
	e.Bytes(self.Sign.Public)
	e.Bytes(self.Anon.Public.Bytes())
	e.Bytes(subject[:])
	e.Bytes(nonce[:])
	encodeOnion(&e, replyOnion)
	e.Bool(snapshotOnly)
	sealed, err := pkc.Seal(target.AP, e.Encode(), nil)
	if err != nil {
		return 0, nil, err
	}
	w := &proofWait{sp: target.SP, ch: make(chan proofResp, 1)}
	n.mu.Lock()
	n.pendingProofs[nonce] = w
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.pendingProofs, nonce)
		n.mu.Unlock()
	}()
	if err := n.sendThroughOnionTimeout(target.Onion, wire.TProofReq, sealed, wait); err != nil {
		return 0, nil, err
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case resp := <-w.ch:
		if resp.subject != subject {
			return 0, nil, ErrBadAgent
		}
		if resp.kind == proofKindWrongOwner {
			return 0, nil, ErrWrongOwner
		}
		return resp.kind, resp.payload, nil
	case <-timer.C:
		return 0, nil, ErrTimeout
	}
}

// handleProofResp consumes a proof response arriving through this node's own
// onion: the outer signature must verify AND be by exactly the key the
// request was addressed to — an edge answers under its own key, and a third
// party's valid signature over someone else's payload is not an answer.
func (n *Node) handleProofResp(sealed []byte) {
	_, plain, ok := n.openAny(sealed)
	if !ok {
		return
	}
	d := wire.NewDecoder(plain)
	signedPart := d.Bytes()
	respSP := d.Bytes()
	sig := d.Bytes()
	if d.Finish() != nil {
		return
	}
	if len(respSP) != ed25519.PublicKeySize || !pkc.Verify(ed25519.PublicKey(respSP), signedPart, sig) {
		return
	}
	b := wire.NewDecoder(signedPart)
	subjRaw := b.Bytes()
	nonceRaw := b.Bytes()
	kind := b.U64()
	payload := append([]byte(nil), b.Bytes()...)
	if b.Finish() != nil || len(subjRaw) != pkc.NodeIDSize || len(nonceRaw) != pkc.NonceSize {
		return
	}
	var subject pkc.NodeID
	var nonce pkc.Nonce
	copy(subject[:], subjRaw)
	copy(nonce[:], nonceRaw)
	n.mu.Lock()
	w := n.pendingProofs[nonce]
	n.mu.Unlock()
	if w == nil || !bytes.Equal(w.sp, respSP) {
		return
	}
	select {
	case w.ch <- proofResp{subject: subject, kind: kind, payload: payload}:
	default:
	}
}

// countProofVerdict counts one client-side verification outcome.
func (n *Node) countProofVerdict(v proof.Verdict) {
	n.stats.proofsVerified.Add(1)
	n.cnt.proofsVerified.Inc()
	switch v {
	case proof.Partial:
		n.stats.proofsPartial.Add(1)
		n.cnt.proofsPartial.Inc()
	case proof.Lying:
		n.stats.proofsLying.Add(1)
		n.cnt.proofsLying.Inc()
	}
}

// --- responder side --------------------------------------------------------

// proofRequest is one decoded, vetted inbound proof request.
type proofRequest struct {
	self         *pkc.Identity // the identity the requestor sealed to
	requestorAP  *ecdh.PublicKey
	subject      pkc.NodeID
	nonce        []byte
	replyOnion   *onion.Onion
	snapshotOnly bool
}

// handleProofReq serves a proof request arriving through this node's onion:
// as an agent, by assembling (or re-serving a cached) signed bundle or
// snapshot; as a configured edge, from the payload cache with a forward
// upstream on miss. A node that is neither drops the frame.
func (n *Node) handleProofReq(sealed []byte) {
	self, plain, ok := n.openAny(sealed)
	if !ok {
		return
	}
	d := wire.NewDecoder(plain)
	spRaw := append([]byte(nil), d.Bytes()...)
	apRaw := d.Bytes()
	subjRaw := d.Bytes()
	nonceRaw := append([]byte(nil), d.Bytes()...)
	replyOnion, onionErr := decodeOnion(d)
	snapshotOnly := false
	if d.More() {
		snapshotOnly = d.Bool()
	}
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
	if n.agent != nil {
		// §3.5.2 key learning, exactly like a trust request.
		if err := n.agent.RegisterKey(requestorID, requestorSP); err != nil {
			return
		}
	}
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
	req := &proofRequest{
		self:         self,
		requestorAP:  requestorAP,
		subject:      subject,
		nonce:        nonceRaw,
		replyOnion:   replyOnion,
		snapshotOnly: snapshotOnly,
	}
	switch {
	case n.agent != nil:
		n.serveProofAsAgent(req)
	case n.proofCache != nil:
		n.serveProofAsEdge(req)
	}
}

// serveProofAsAgent answers a proof request from this agent's own store:
// routed-overlay ownership is enforced exactly like a trust request, cached
// payloads are re-served within their TTL, and fresh ones are assembled under
// the store's current WAL epoch (with the tamper hook applied between
// assembly and signing, for the audit harness's lying agent).
func (n *Node) serveProofAsAgent(req *proofRequest) {
	if _, read := n.subjectOwnership(req.subject); !read {
		n.stats.placementRedirects.Add(1)
		n.cnt.placementRedirects.Inc()
		n.sendProofResp(req, proofKindWrongOwner, nil)
		return
	}
	kind := uint64(proofKindBundle)
	if req.snapshotOnly {
		kind = proofKindSnapshot
	}
	now := time.Now()
	key := proofCacheKey(req.subject, kind)
	if n.proofCache != nil {
		if payload, ok := n.proofCache.get(key, now); ok {
			n.stats.proofCacheHits.Add(1)
			n.cnt.proofCacheHits.Inc()
			n.countProofServed()
			n.sendProofResp(req, kind, payload)
			return
		}
		n.stats.proofCacheMisses.Add(1)
		n.cnt.proofCacheMisses.Inc()
	}
	st := n.agent.Store()
	b := proof.AssembleUnsigned(st, req.subject, st.WALEpoch())
	n.proofMu.Lock()
	tamper := n.proofTamper
	n.proofMu.Unlock()
	if tamper != nil {
		tamper(b)
	}
	b.Sign(req.self)
	var payload []byte
	if req.snapshotOnly {
		expires := uint64(now.Add(n.snapshotTTL()).Unix())
		payload = proof.SnapshotFromBundle(req.self, b, expires).Encode()
	} else {
		payload = b.Encode()
	}
	if n.proofCache != nil {
		// A snapshot assembled here carries Expires = now + TTL, so the cache
		// entry and the payload's own validity run out together.
		n.proofCache.put(key, payload, now.Add(n.proofCache.ttl))
	}
	n.countProofServed()
	n.sendProofResp(req, kind, payload)
}

// serveProofAsEdge answers from the payload cache, forwarding upstream on a
// miss. The edge signs the outer response under its own identity — which is
// the key the requestor addressed — while the payload bytes stay exactly as
// the issuing agent signed them, so the requestor's proof.Verify binds the
// content to the agent no matter how many edges relayed it.
func (n *Node) serveProofAsEdge(req *proofRequest) {
	kind := uint64(proofKindBundle)
	if req.snapshotOnly {
		kind = proofKindSnapshot
	}
	now := time.Now()
	key := proofCacheKey(req.subject, kind)
	if payload, ok := n.proofCache.get(key, now); ok {
		// Cache hit: served entirely from this edge, zero agent round trips.
		n.stats.proofCacheHits.Add(1)
		n.cnt.proofCacheHits.Inc()
		n.countProofServed()
		n.sendProofResp(req, kind, payload)
		return
	}
	n.stats.proofCacheMisses.Add(1)
	n.cnt.proofCacheMisses.Inc()
	upstream, fwdOnion := n.proofEdgeConfig()
	if fwdOnion == nil {
		return // not configured as an edge
	}
	if n.isClosed() {
		return
	}
	// The upstream round trip takes a full request timeout; run it off the
	// session handler so a cold cache cannot stall unrelated inbound frames.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		target := upstream
		if target.SP == nil {
			// No pinned upstream: route by the placement map, like any client.
			m, _ := n.Placement()
			if m == nil {
				return
			}
			info, err := n.groupInfo(m, m.ReadOwner(req.subject))
			if err != nil {
				return
			}
			target = info
		}
		k, payload, err := n.requestProofOnce(target, req.subject, fwdOnion, req.snapshotOnly, n.timeout())
		if err != nil || k != kind {
			return
		}
		// A fetched snapshot was issued upstream some round trips ago, so its
		// embedded Expires lands before now+TTL: cap the cache entry at the
		// payload's own validity, or the tail of the window would serve
		// already-expired snapshots as cache hits that every client then
		// fails (permanently) to verify. A payload with no validity left —
		// or one that does not even decode — is forwarded but never cached.
		fetched := time.Now()
		expires := fetched.Add(n.proofCache.ttl)
		cacheable := true
		if kind == proofKindSnapshot {
			ts, derr := proof.DecodeTrustSnapshot(payload)
			if derr != nil {
				cacheable = false
			} else if embedded := time.Unix(int64(ts.Expires), 0); embedded.Before(expires) {
				expires = embedded
			}
		}
		if cacheable && expires.After(fetched) {
			n.proofCache.put(key, payload, expires)
		}
		n.countProofServed()
		n.sendProofResp(req, kind, payload)
	}()
}

// sendProofResp signs and seals one proof response to the requestor and sends
// it through their reply onion.
func (n *Node) sendProofResp(req *proofRequest, kind uint64, payload []byte) {
	var body wire.Encoder
	body.Bytes(req.subject[:])
	body.Bytes(req.nonce)
	body.U64(kind)
	body.Bytes(payload)
	signedPart := body.Encode()
	sig := req.self.SignMessage(signedPart)
	var e wire.Encoder
	e.Bytes(signedPart).Bytes(req.self.Sign.Public).Bytes(sig)
	sealedResp, err := pkc.Seal(req.requestorAP, e.Encode(), nil)
	if err != nil {
		return
	}
	_ = n.sendThroughOnion(req.replyOnion, wire.TProofResp, sealedResp)
}

// countProofServed counts one proof payload served (agent or edge).
func (n *Node) countProofServed() {
	n.stats.proofsServed.Add(1)
	n.cnt.proofsServed.Inc()
}

// snapshotTTL returns the configured snapshot/cache TTL.
func (n *Node) snapshotTTL() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.opts.SnapshotTTL
}
