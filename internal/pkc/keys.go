// Package pkc implements hiREP's public-key system (§3.3 of the paper).
//
// Every peer holds two key pairs:
//
//   - a signature key pair (SP, SR) that authenticates trust values and
//     transaction reports — implemented with Ed25519;
//   - an anonymity key pair (AP, AR) used to encrypt onion layers and relay
//     handshakes — implemented with X25519 ECDH plus AES-GCM (a hybrid
//     public-key "seal" operation).
//
// The node identifier is the SHA-1 hash of SP, exactly as the paper
// specifies. Because the ID is derived from the key, the binding between a
// nodeID and its signature key is self-certifying: an attacker cannot
// substitute its own key for an existing nodeID without inverting the hash,
// which defeats man-in-the-middle key substitution without any certificate
// authority.
package pkc

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// NodeIDSize is the size of a hiREP node identifier in bytes (SHA-1 digest).
const NodeIDSize = sha1.Size

// NodeID is the self-certifying identifier of a peer: SHA-1(SP).
type NodeID [NodeIDSize]byte

// String renders the ID as lowercase hex.
func (id NodeID) String() string { return hex.EncodeToString(id[:]) }

// Short returns the first 8 hex digits, for logs.
func (id NodeID) Short() string { return hex.EncodeToString(id[:4]) }

// IsZero reports whether the ID is all zeroes (the invalid ID).
func (id NodeID) IsZero() bool { return id == NodeID{} }

// ParseNodeID decodes a 40-hex-digit string into a NodeID.
func ParseNodeID(s string) (NodeID, error) {
	var id NodeID
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("pkc: bad node id %q: %w", s, err)
	}
	if len(b) != NodeIDSize {
		return id, fmt.Errorf("pkc: node id %q has %d bytes, want %d", s, len(b), NodeIDSize)
	}
	copy(id[:], b)
	return id, nil
}

// DeriveNodeID computes the nodeID for a signature public key.
func DeriveNodeID(sp ed25519.PublicKey) NodeID {
	return NodeID(sha1.Sum(sp))
}

// SignKeyPair is the (SP, SR) signature pair of §3.3.
type SignKeyPair struct {
	Public  ed25519.PublicKey  // SP
	private ed25519.PrivateKey // SR
}

// AnonKeyPair is the (AP, AR) anonymity pair of §3.3.
type AnonKeyPair struct {
	Public  *ecdh.PublicKey  // AP
	private *ecdh.PrivateKey // AR
}

// Valid reports whether kp holds a private key whose public half is
// kp.Public, so that kp.Open opens exactly what was sealed to kp.Public.
func (kp AnonKeyPair) Valid() bool {
	return kp.private != nil && kp.Public != nil && kp.private.PublicKey().Equal(kp.Public)
}

// Identity bundles a peer's keys and derived nodeID.
type Identity struct {
	ID   NodeID
	Sign SignKeyPair
	Anon AnonKeyPair
}

// NewIdentity generates fresh signature and anonymity key pairs from r
// (use crypto/rand.Reader in production; a deterministic reader in tests).
func NewIdentity(r io.Reader) (*Identity, error) {
	if r == nil {
		r = rand.Reader
	}
	sp, sr, err := ed25519.GenerateKey(r)
	if err != nil {
		return nil, fmt.Errorf("pkc: generate signature key: %w", err)
	}
	ar, err := ecdh.X25519().GenerateKey(r)
	if err != nil {
		return nil, fmt.Errorf("pkc: generate anonymity key: %w", err)
	}
	return &Identity{
		ID:   DeriveNodeID(sp),
		Sign: SignKeyPair{Public: sp, private: sr},
		Anon: AnonKeyPair{Public: ar.PublicKey(), private: ar},
	}, nil
}

// SignMessage signs msg with SR.
func (id *Identity) SignMessage(msg []byte) []byte {
	ops.sign.Add(1)
	return ed25519.Sign(id.Sign.private, msg)
}

// Verify checks a signature over msg against a signature public key sp.
func Verify(sp ed25519.PublicKey, msg, sig []byte) bool {
	ops.verify.Add(1)
	return verify(sp, msg, sig)
}

// verify is Verify without the operation count; VerifyBatch counts its
// signatures separately.
func verify(sp ed25519.PublicKey, msg, sig []byte) bool {
	if len(sp) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(sp, msg, sig)
}

// VerifyBinding checks that id is in fact SHA-1(sp), i.e. the key presented
// for a nodeID is the key the nodeID commits to. Every receiver of a public
// key in hiREP performs this check; it is what makes key distribution work
// without a certificate authority.
func VerifyBinding(id NodeID, sp ed25519.PublicKey) bool {
	return DeriveNodeID(sp) == id
}

// errors shared by this package.
var (
	ErrBadCiphertext = errors.New("pkc: ciphertext invalid or tampered")
	ErrBadKey        = errors.New("pkc: malformed public key")
)
