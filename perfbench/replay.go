package main

import (
	"crypto/ed25519"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hirep/internal/agentdir"
	"hirep/internal/node"
	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/proof"
	"hirep/internal/repstore"
)

// Replays run a workload's own inputs and outputs back through a lower
// layer's public functions, after the measured round, so a layer's cost is
// timed in isolation at the sizes the workload produced.

const replayReps = 200

// timed runs fn reps times, each as a span of layer, and returns the median
// duration in microseconds.
func timed(tr *tracer, layer, name string, reps int, fn func()) float64 {
	us := make([]float64, reps)
	for i := range us {
		start := time.Now()
		fn()
		end := time.Now()
		tr.record(0, 0, 0, layer, name, start, end)
		us[i] = float64(end.Sub(start)) / float64(time.Microsecond)
	}
	return median(us)
}

// replayCrypto times pkc and onion at the workload's sizes: sealSize is the
// mean bytes per frame the fleet wrote, wires are signed reports, relays is
// the agent-onion route length.
func replayCrypto(tr *tracer, sealSize int, wires [][]byte, signer *pkc.Identity, relays int, m map[string]metric) error {
	id, err := pkc.NewIdentity(nil)
	if err != nil {
		return err
	}
	payload := make([]byte, max(sealSize, 1))
	var box []byte
	m["pkc.seal_us"] = metric{timed(tr, "pkc", "Seal", replayReps, func() {
		box, err = pkc.Seal(id.Anon.Public, payload, nil)
	}), "us"}
	if err != nil {
		return err
	}
	m["pkc.open_us"] = metric{timed(tr, "pkc", "Open", replayReps, func() {
		_, err = id.Anon.Open(box)
	}), "us"}
	if err != nil {
		return fmt.Errorf("replay open: %w", err)
	}

	keys := make([]ed25519.PublicKey, len(wires))
	bodies := make([][]byte, len(wires))
	sigs := make([][]byte, len(wires))
	for i, w := range wires {
		_, _, _, body, sig, err := agentdir.ParseReportWire(w)
		if err != nil {
			return err
		}
		keys[i], bodies[i], sigs[i] = signer.Sign.Public, body, sig
	}
	ok := true
	m["pkc.sign_us"] = metric{timed(tr, "pkc", "SignMessage", replayReps, func() {
		signer.SignMessage(bodies[0])
	}), "us"}
	m["pkc.verify_us"] = metric{timed(tr, "pkc", "Verify", replayReps, func() {
		ok = ok && pkc.Verify(keys[0], bodies[0], sigs[0])
	}), "us"}
	batch := timed(tr, "pkc", "VerifyBatch", 10, func() {
		for _, v := range pkc.VerifyBatch(keys, bodies, sigs) {
			ok = ok && v
		}
	})
	m["pkc.verifybatch_us_per_sig"] = metric{batch / float64(len(wires)), "us"}
	if !ok {
		return fmt.Errorf("replay: a report signature failed to verify")
	}

	route := make([]onion.Relay, relays)
	var hop0 *pkc.Identity
	for i := range route {
		r, err := pkc.NewIdentity(nil)
		if err != nil {
			return err
		}
		if i == 0 {
			hop0 = r
		}
		route[i] = onion.Relay{Addr: fmt.Sprintf("127.0.0.1:%d", 7000+i), AP: r.Anon.Public}
	}
	o, err := onion.Build(id, "127.0.0.1:6999", route, 1, nil)
	if err != nil {
		return err
	}
	m["onion.peel_us"] = metric{timed(tr, "onion", "Peel", replayReps, func() {
		_, err = onion.Peel(hop0.Anon, o.Blob)
	}), "us"}
	if err != nil {
		return fmt.Errorf("replay peel: %w", err)
	}
	m["onion.verifysig_us"] = metric{timed(tr, "onion", "VerifySig", replayReps, func() {
		err = o.VerifySig(id.Sign.Public)
	}), "us"}
	return err
}

// replayDurable submits the workload's report wires as one batch to an
// agent on a scratch durable store (WAL, fsync on, evidence retained as the
// agents do) through agentdir.SubmitReportBatch, the call a live agent makes
// for a ReportBatch frame. It reports the commit time and the bytes logged
// per report: the durable write path, which no measured round reaches.
func replayDurable(tr *tracer, dir string, evidenceCap int, signer *pkc.Identity, wires [][]byte, m map[string]metric) error {
	d := filepath.Join(dir, "replay-wal")
	defer os.RemoveAll(d)
	st, err := repstore.Open(d, repstore.Options{EvidenceCap: evidenceCap, CompactAfter: -1})
	if err != nil {
		return err
	}
	self, err := pkc.NewIdentity(nil)
	if err != nil {
		st.Close()
		return err
	}
	agent := agentdir.NewWithStore(self, 2*len(wires), st)
	if err := agent.RegisterKey(signer.ID, signer.Sign.Public); err != nil {
		agent.Close()
		return err
	}
	before := st.WALSize()
	start := time.Now()
	_, errs := agent.SubmitReportBatch(signer.ID, wires)
	end := time.Now()
	tr.record(0, 0, 0, "repstore", "SubmitReportBatch", start, end)
	for _, err := range errs {
		if err != nil {
			agent.Close()
			return fmt.Errorf("replay durable batch: %w", err)
		}
	}
	m["repstore.commit_us_per_report"] = metric{float64(end.Sub(start).Microseconds()) / float64(len(wires)), "us"}
	m["repstore.wal_bytes_per_report"] = metric{float64(st.WALSize()-before) / float64(len(wires)), "B"}
	return agent.Close()
}

// replayProof re-verifies bundles a read returned and re-assembles them
// from the serving agent's store.
func replayProof(tr *tracer, bundles []*proof.Bundle, agent *node.Node, m map[string]metric) error {
	if len(bundles) == 0 {
		return fmt.Errorf("replay: no proof bundle to verify")
	}
	var vms, aus, size []float64
	for _, b := range bundles {
		var err error
		vms = append(vms, timed(tr, "proof", "Verify", 3, func() { _, err = proof.Verify(b) })/1e3)
		if err != nil {
			return fmt.Errorf("replay proof verify: %w", err)
		}
		aus = append(aus, timed(tr, "proof", "AssembleUnsigned", 3, func() {
			proof.AssembleUnsigned(agent.Agent().Store(), b.Subject, 0)
		}))
		size = append(size, float64(len(b.Encode())))
	}
	m["proof.verify_ms"] = metric{median(vms), "ms"}
	m["proof.assemble_us"] = metric{median(aus), "us"}
	m["proof.bundle_bytes"] = metric{median(size), "B"}
	return nil
}
