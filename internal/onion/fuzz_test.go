package onion

import (
	"testing"

	"hirep/internal/pkc"
)

// fuzzIdentity is a fixed identity shared by fuzz targets (generation is too
// slow to do per-execution).
var fuzzIdentity = func() *pkc.Identity {
	id, err := pkc.NewIdentity(nil)
	if err != nil {
		panic(err)
	}
	return id
}()

// FuzzPeel feeds arbitrary blobs to the onion peeler: it must reject
// everything it did not seal itself, without panicking.
func FuzzPeel(f *testing.F) {
	route := []Relay{{Addr: "r", AP: fuzzIdentity.Anon.Public}}
	o, err := Build(fuzzIdentity, "owner", route, 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(o.Blob)
	f.Add([]byte{})
	f.Add(make([]byte, 100))
	f.Fuzz(func(t *testing.T, blob []byte) {
		res, err := Peel(fuzzIdentity.Anon, blob)
		if err != nil {
			return
		}
		// Anything that peels must be well-formed: either an exit or a
		// forwardable layer with a next hop.
		if !res.Exit && res.Next == "" {
			t.Fatal("peeled layer has neither exit nor next hop")
		}
	})
}

// FuzzDecodeRelayRequest hardens the plaintext handshake message parser.
func FuzzDecodeRelayRequest(f *testing.F) {
	f.Add(EncodeRelayRequest(RelayRequest{AP: fuzzIdentity.Anon.Public, Addr: "a:1"}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRelayRequest(data)
		if err != nil {
			return
		}
		if req.AP == nil {
			t.Fatal("accepted request without key")
		}
		// Accepted requests re-encode and re-decode to the same fields.
		again, err := DecodeRelayRequest(EncodeRelayRequest(req))
		if err != nil || again.Addr != req.Addr {
			t.Fatalf("round trip broke: %v", err)
		}
	})
}

// FuzzOpenHandshakes throws arbitrary ciphertext at every sealed handshake
// opener.
func FuzzOpenHandshakes(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Add(make([]byte, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := OpenRelayResponse(fuzzIdentity, data); err == nil {
			t.Fatal("garbage opened as relay response")
		}
		if _, err := OpenKeyVerify(fuzzIdentity, data); err == nil {
			t.Fatal("garbage opened as key verify")
		}
		if err := OpenConfirm(fuzzIdentity, pkc.Nonce{}, data); err == nil {
			t.Fatal("garbage opened as confirm")
		}
	})
}

// fuzzMemo persists across fuzz executions, so later inputs are checked
// against entries earlier ones left behind.
var fuzzMemo = NewMemo()

// FuzzMemoAgrees: the memo's answers agree with Peel and Onion.VerifySig on
// arbitrary blobs, signatures and sequence numbers, first call and repeat.
func FuzzMemoAgrees(f *testing.F) {
	route := []Relay{{Addr: "r", AP: fuzzIdentity.Anon.Public}}
	o, err := Build(fuzzIdentity, "owner", route, 3, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(o.Blob, o.Sig, o.Seq)
	f.Add(o.Blob[:len(o.Blob)-1], append([]byte{o.Blob[len(o.Blob)-1]}, o.Sig...), o.Seq)
	f.Add(o.Blob, o.Sig, o.Seq+1)
	f.Add([]byte{}, []byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, blob, sig []byte, seq uint64) {
		want, wantErr := Peel(fuzzIdentity.Anon, blob)
		for i := 0; i < 2; i++ {
			got, err := fuzzMemo.Peel(fuzzIdentity.Anon, blob)
			if (err == nil) != (wantErr == nil) || (err == nil && !samePeel(got, want)) {
				t.Fatalf("call %d: memo peel (%v) disagrees with Peel (%v)", i, err, wantErr)
			}
		}
		cand := &Onion{Entry: "e", Blob: blob, Seq: seq, Sig: sig}
		wantSig := cand.VerifySig(fuzzIdentity.Sign.Public)
		for i := 0; i < 2; i++ {
			if err := fuzzMemo.VerifySig(cand, fuzzIdentity.Sign.Public); (err == nil) != (wantSig == nil) {
				t.Fatalf("call %d: memo verify (%v) disagrees with VerifySig (%v)", i, err, wantSig)
			}
		}
	})
}
