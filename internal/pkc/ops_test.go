package pkc

import (
	"crypto/ed25519"
	"errors"
	"testing"
)

// TestOpenOneByteShort pins the constant framing: the shortest box Seal can
// produce opens, and one byte less is ErrBadCiphertext before any key
// agreement runs.
func TestOpenOneByteShort(t *testing.T) {
	id := mustIdentity(t)
	box, err := Seal(id.Anon.Public, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(box) != SealOverhead() {
		t.Fatalf("empty seal is %d bytes, SealOverhead() = %d", len(box), SealOverhead())
	}
	if _, err := id.Anon.Open(box); err != nil {
		t.Fatalf("minimal box rejected: %v", err)
	}
	before := Ops()
	if _, err := id.Anon.Open(box[:len(box)-1]); !errors.Is(err, ErrBadCiphertext) {
		t.Fatalf("one byte short: err = %v, want ErrBadCiphertext", err)
	}
	if d := Ops().Sub(before); d.Open != 0 {
		t.Fatalf("short box ran %d opens, want 0", d.Open)
	}
}

func TestOpCounts(t *testing.T) {
	id := mustIdentity(t)
	before := Ops()
	box, _ := Seal(id.Anon.Public, []byte("x"), nil)
	_, _ = id.Anon.Open(box)
	sig := id.SignMessage([]byte("m"))
	Verify(id.Sign.Public, []byte("m"), sig)
	n := verifyBatchSerialBelow + 1
	keys := make([]ed25519.PublicKey, n)
	msgs := make([][]byte, n)
	sigs := make([][]byte, n)
	for i := range keys {
		keys[i], msgs[i], sigs[i] = id.Sign.Public, []byte("m"), sig
	}
	VerifyBatch(keys, msgs, sigs)
	want := OpCounts{Seal: 1, Open: 1, Sign: 1, Verify: 1, BatchVerify: uint64(n)}
	if got := Ops().Sub(before); got != want {
		t.Fatalf("op counts %+v, want %+v", got, want)
	}
}

func TestAnonKeyPairValid(t *testing.T) {
	id := mustIdentity(t)
	other := mustIdentity(t)
	if !id.Anon.Valid() {
		t.Fatal("generated key pair not valid")
	}
	for name, kp := range map[string]AnonKeyPair{
		"zero":        {},
		"public only": {Public: id.Anon.Public},
		"mismatched":  {Public: other.Anon.Public, private: id.Anon.private},
	} {
		if kp.Valid() {
			t.Fatalf("%s key pair reported valid", name)
		}
	}
}
