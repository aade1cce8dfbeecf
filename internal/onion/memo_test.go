package onion

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"hirep/internal/pkc"
)

// bytes is the memory currently charged to m.
func (m *Memo) bytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.curBytes + m.prevBytes
}

func samePeel(a, b PeelResult) bool {
	return a.Exit == b.Exit && a.Next == b.Next && bytes.Equal(a.Inner, b.Inner)
}

// TestMemoPeelHits walks a chain twice through one memo: the first walk
// agrees with Peel hop by hop, the second runs no X25519 open at all.
func TestMemoPeelHits(t *testing.T) {
	owner, relays, o := buildChain(t, 3, 1)
	m := NewMemo()
	walk := func() {
		blob := o.Blob
		for _, r := range relays {
			got, err := m.Peel(r.Anon, blob)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := Peel(r.Anon, blob)
			if !samePeel(got, want) {
				t.Fatal("memo peel differs from Peel")
			}
			blob = got.Inner
		}
		if res, err := m.Peel(owner.Anon, blob); err != nil || !res.Exit {
			t.Fatalf("owner peel: exit=%v err=%v", res.Exit, err)
		}
	}
	walk()
	before := pkc.Ops()
	walk()
	// The second walk's memo peels are hits; only walk's own comparison
	// against Peel opens.
	if d := pkc.Ops().Sub(before); d.Open != uint64(len(relays)) {
		t.Fatalf("warm walk ran %d opens, want %d (the reference peels only)", d.Open, len(relays))
	}
}

// TestMemoFailuresNotCached: a failed peel or signature check is recomputed
// every time, and never turns into a success.
func TestMemoFailuresNotCached(t *testing.T) {
	_, relays, o := buildChain(t, 1, 1)
	stranger := ident(t)
	m := NewMemo()
	before := pkc.Ops()
	for i := 0; i < 3; i++ {
		if _, err := m.Peel(stranger.Anon, o.Blob); !errors.Is(err, ErrNotForUs) {
			t.Fatalf("stranger peel: %v", err)
		}
		if err := m.VerifySig(o, stranger.Sign.Public); !errors.Is(err, ErrBadSig) {
			t.Fatalf("wrong-key verify: %v", err)
		}
	}
	if d := pkc.Ops().Sub(before); d.Open != 3 || d.Verify != 3 {
		t.Fatalf("failures ran %d opens and %d verifies, want 3 and 3", d.Open, d.Verify)
	}
	if _, err := m.Peel(relays[0].Anon, o.Blob); err != nil {
		t.Fatal(err)
	}
	if m.bytes() == 0 {
		t.Fatal("successful peel not remembered")
	}
}

// TestMemoNeedsPrivateKey: a key pair that cannot open the blob itself never
// gets the remembered answer, even for the same public key.
func TestMemoNeedsPrivateKey(t *testing.T) {
	_, relays, o := buildChain(t, 1, 1)
	m := NewMemo()
	if _, err := m.Peel(relays[0].Anon, o.Blob); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Peel(pkc.AnonKeyPair{Public: relays[0].Anon.Public}, o.Blob); err == nil {
		t.Fatal("public key alone peeled a remembered blob")
	}
}

// TestMemoSigFieldsBound: after a verified entry, moving bytes between Blob
// and Sig, changing Seq, or asking under another key is a miss that runs a
// real verify and fails.
func TestMemoSigFieldsBound(t *testing.T) {
	owner, _, o := buildChain(t, 1, 7)
	other := ident(t)
	m := NewMemo()
	if err := m.VerifySig(o, owner.Sign.Public); err != nil {
		t.Fatal(err)
	}
	cat := func(a, b []byte) []byte { return append(append([]byte(nil), a...), b...) }
	n := len(o.Blob)
	cases := map[string]struct {
		o  *Onion
		sp []byte
	}{
		"blob tail into sig":  {&Onion{Blob: o.Blob[:n-1], Sig: cat(o.Blob[n-1:], o.Sig), Seq: o.Seq}, owner.Sign.Public},
		"sig head into blob":  {&Onion{Blob: cat(o.Blob, o.Sig[:1]), Sig: o.Sig[1:], Seq: o.Seq}, owner.Sign.Public},
		"seq raised":          {&Onion{Blob: o.Blob, Sig: o.Sig, Seq: o.Seq + 1}, owner.Sign.Public},
		"seq lowered":         {&Onion{Blob: o.Blob, Sig: o.Sig, Seq: o.Seq - 1}, owner.Sign.Public},
		"other signer's key":  {&Onion{Blob: o.Blob, Sig: o.Sig, Seq: o.Seq}, other.Sign.Public},
		"seq bytes into blob": {&Onion{Blob: cat([]byte{0, 0, 0, 0, 0, 0, 0, 7}, o.Blob), Sig: o.Sig}, owner.Sign.Public},
	}
	for name, c := range cases {
		before := pkc.Ops()
		if err := m.VerifySig(c.o, c.sp); !errors.Is(err, ErrBadSig) {
			t.Fatalf("%s: err = %v, want ErrBadSig", name, err)
		}
		if d := pkc.Ops().Sub(before); d.Verify != 1 {
			t.Fatalf("%s: ran %d verifies, want a miss (1)", name, d.Verify)
		}
	}
	before := pkc.Ops()
	if err := m.VerifySig(&Onion{Entry: "elsewhere", Blob: o.Blob, Sig: o.Sig, Seq: o.Seq}, owner.Sign.Public); err != nil {
		t.Fatal(err)
	}
	if d := pkc.Ops().Sub(before); d.Verify != 0 {
		t.Fatalf("unchanged signed fields missed the memo (%d verifies)", d.Verify)
	}
}

// TestMemoByteBound floods the memo with distinct large valid blobs: its
// charged size never passes memoBytes, and every answer stays correct.
func TestMemoByteBound(t *testing.T) {
	kp := ident(t).Anon
	m := NewMemo()
	payload := make([]byte, 256<<10)
	for i := 0; i < 40; i++ {
		payload[0] = byte(i)
		blob, err := pkc.Seal(kp.Public, encodeLayer("next", payload), nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Peel(kp, blob)
		if err != nil || res.Next != "next" || !bytes.Equal(res.Inner, payload) {
			t.Fatalf("blob %d: wrong peel (err %v)", i, err)
		}
		if got := m.bytes(); got > memoBytes {
			t.Fatalf("after %d blobs the memo holds %d bytes, bound %d", i+1, got, memoBytes)
		}
	}
	// A blob too large for a generation is answered but not kept.
	huge, err := pkc.Seal(kp.Public, encodeLayer("next", make([]byte, memoBytes/2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	m = NewMemo()
	if _, err := m.Peel(kp, huge); err != nil {
		t.Fatal(err)
	}
	if m.bytes() != 0 {
		t.Fatalf("oversized entry kept (%d bytes)", m.bytes())
	}
}

// TestMemoKeepsHotEntries: an entry hit while older generations turn over is
// copied forward and stays a hit.
func TestMemoKeepsHotEntries(t *testing.T) {
	_, relays, o := buildChain(t, 1, 1)
	kp := ident(t).Anon
	m := NewMemo()
	if _, err := m.Peel(relays[0].Anon, o.Blob); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 128<<10)
	for i := 0; i < 64; i++ {
		payload[0] = byte(i)
		blob, _ := pkc.Seal(kp.Public, encodeLayer("x", payload), nil)
		if _, err := m.Peel(kp, blob); err != nil {
			t.Fatal(err)
		}
		before := pkc.Ops()
		if _, err := m.Peel(relays[0].Anon, o.Blob); err != nil {
			t.Fatal(err)
		}
		if d := pkc.Ops().Sub(before); d.Open != 0 {
			t.Fatalf("hot entry evicted after %d cold blobs", i+1)
		}
	}
}

// TestMemoConcurrent shares one memo and its results across goroutines; run
// under -race it checks that hits hand out read-only data safely.
func TestMemoConcurrent(t *testing.T) {
	owner, relays, o := buildChain(t, 2, 1)
	m := NewMemo()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := m.VerifySig(o, owner.Sign.Public); err != nil {
					t.Error(err)
					return
				}
				blob := o.Blob
				for _, r := range relays {
					res, err := m.Peel(r.Anon, blob)
					if err != nil {
						t.Error(err)
						return
					}
					blob = append([]byte(nil), res.Inner...)
				}
				if res, err := m.Peel(owner.Anon, blob); err != nil || !res.Exit {
					t.Errorf("owner peel: exit=%v err=%v", res.Exit, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
