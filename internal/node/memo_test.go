package node

import (
	"errors"
	"testing"
	"time"

	"hirep/internal/onion"
	"hirep/internal/pkc"
)

// memoFleet is the standard read fleet: agents behind 2-relay onions, and one
// peer whose reply onion runs through the last relay.
func memoFleet(t *testing.T, agents int) (*Fleet, []AgentInfo, *onion.Onion) {
	t.Helper()
	f, err := StartFleet(FleetConfig{Agents: agents, Relays: 2, Peers: 1, Opts: Options{Timeout: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	infos, err := f.AgentInfos()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := f.ReplyOnion(f.Peers[0])
	if err != nil {
		t.Fatal(err)
	}
	return f, infos, reply
}

// TestTrustRequestPKCOps pins the public-key operations of one trust request
// (the live twin of §4.1's message counts). Cold, every onion layer costs an
// X25519 open and both onions' signatures an Ed25519 verify: 2 seals, 7
// opens (3 agent-onion peels, the request, 2 reply-onion peels, the
// response), 3 verifies and 1 sign. Warm, the memo answers the peels and the
// onion signatures, leaving the request's and response's own crypto: 2
// seals, 2 opens, 1 verify, 1 sign. Every response's ops finish before
// RequestTrust returns, so the deltas are exact.
func TestTrustRequestPKCOps(t *testing.T) {
	f, infos, reply := memoFleet(t, 3)
	peer := f.Peers[0]
	subject, _ := pkc.NewIdentity(nil)
	request := func(info AgentInfo) pkc.OpCounts {
		t.Helper()
		before := pkc.Ops()
		if _, _, err := peer.RequestTrust(info, subject.ID, reply); err != nil {
			t.Fatal(err)
		}
		return pkc.Ops().Sub(before)
	}
	cold := pkc.OpCounts{Seal: 2, Open: 7, Sign: 1, Verify: 3}
	if got := request(infos[0]); got != cold {
		t.Fatalf("cold request: %+v, want %+v", got, cold)
	}
	for _, info := range infos[1:] {
		request(info) // warms the other agents' onions
	}
	warm := pkc.OpCounts{Seal: 2, Open: 2, Sign: 1, Verify: 1}
	for round := 0; round < 3; round++ {
		for i, info := range infos {
			if got := request(info); got != warm {
				t.Fatalf("round %d, agent %d: warm request %+v, want %+v", round, i, got, warm)
			}
		}
	}
}

// TestStaleReplyOnionRejectedOnMemoHit: the memo remembers that an old reply
// onion's signature is good, but the §3.3 age check still runs on every
// request, so the agent drops it once a newer onion has been seen.
func TestStaleReplyOnionRejectedOnMemoHit(t *testing.T) {
	f, infos, older := memoFleet(t, 1)
	peer, agentNode := f.Peers[0], f.Agents[0]
	newer, err := f.ReplyOnion(peer)
	if err != nil {
		t.Fatal(err)
	}
	if newer.Seq <= older.Seq {
		t.Fatalf("reply onion seqs %d then %d", older.Seq, newer.Seq)
	}
	subject, _ := pkc.NewIdentity(nil)
	for _, o := range []*onion.Onion{older, newer} {
		if _, _, err := peer.RequestTrust(infos[0], subject.ID, o); err != nil {
			t.Fatal(err)
		}
	}
	served := agentNode.Stats().TrustServed
	before := pkc.Ops()
	if _, _, err := peer.requestTrust(infos[0], subject.ID, older, 1, 300*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("stale reply onion: err = %v, want ErrTimeout", err)
	}
	if d := pkc.Ops().Sub(before); d.Verify != 0 {
		t.Fatalf("stale onion's signature was re-verified (%d verifies): memo not hit", d.Verify)
	}
	if got := agentNode.Stats().TrustServed; got != served {
		t.Fatalf("agent served %d requests through a stale reply onion", got-served)
	}
}

// TestRotatedOutIdentityStopsPeeling: once an identity leaves the rotation
// grace window, blobs sealed to it stop peeling even though the memo still
// holds their earlier result.
func TestRotatedOutIdentityStopsPeeling(t *testing.T) {
	nd := fleet(t, 1, 0)[0]
	builder, _ := pkc.NewIdentity(nil)
	first := nd.identity()
	o, err := onion.Build(builder, "owner", []onion.Relay{{Addr: nd.Addr(), AP: first.Anon.Public}}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := nd.peelAny(o.Blob); !ok {
		t.Fatal("fresh onion did not peel")
	}
	for i := 0; i < maxPrevIdentities; i++ {
		if _, _, err := nd.RotateIdentity(nil); err != nil {
			t.Fatal(err)
		}
		if _, ok := nd.peelAny(o.Blob); !ok {
			t.Fatalf("onion stopped peeling inside the grace window (rotation %d)", i+1)
		}
	}
	if _, _, err := nd.RotateIdentity(nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := nd.peelAny(o.Blob); ok {
		t.Fatal("onion sealed to a rotated-out identity still peels")
	}
	if _, err := nd.memo.Peel(first.Anon, o.Blob); err != nil {
		t.Fatalf("the old identity itself no longer peels (%v): the test proves nothing", err)
	}
}
