package onion

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"

	"hirep/internal/pkc"
)

// memoBytes bounds a Memo's memory. It is charged in bytes, not entries:
// wire.MaxFrame admits blobs up to 1 MiB, so an entry-count bound would let
// a peer pin gigabytes with a few thousand large onions.
const memoBytes = 4 << 20

// memoEntryOverhead is charged per entry on top of its blob: the 32-byte key,
// the map slot and the PeelResult header.
const memoEntryOverhead = 96

// Domain tags keep peel keys and signature keys in disjoint key spaces.
const (
	memoPeelDomain = "hirep/onion-memo/v1/peel"
	memoSigDomain  = "hirep/onion-memo/v1/sig"
)

// Memo remembers successful onion peels and onion-signature checks so that
// the byte-identical onions a live node sees on every request are paid for
// once (DESIGN.md §16). Only successes are kept; a failure is recomputed on
// every call. It is safe for concurrent use.
//
// Memory is bounded by memoBytes across two generations: new entries go to
// the current one, and when it is full it becomes the previous one and the
// older previous one is dropped. A hit in the previous generation is copied
// forward, so onions in steady use survive turnover.
type Memo struct {
	mu        sync.Mutex
	cur, prev map[[32]byte]memoEntry
	curBytes  int
	prevBytes int
}

// memoEntry is one remembered success. A signature entry holds the zero
// result; its key's domain keeps it from ever answering a peel.
type memoEntry struct {
	res  PeelResult
	cost int // bytes charged against memoBytes
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{cur: make(map[[32]byte]memoEntry), prev: make(map[[32]byte]memoEntry)}
}

// Peel is Peel(kp, blob), answered from the memo when kp has peeled the same
// blob before. The returned Inner is shared between callers and must not be
// modified.
func (m *Memo) Peel(kp pkc.AnonKeyPair, blob []byte) (PeelResult, error) {
	if !kp.Valid() {
		return Peel(kp, blob)
	}
	h := sha256.New()
	h.Write([]byte(memoPeelDomain))
	writeField(h, kp.Public.Bytes())
	writeField(h, blob)
	var k [32]byte
	h.Sum(k[:0])
	if res, ok := m.get(k); ok {
		return res, nil
	}
	res, err := Peel(kp, blob)
	if err == nil {
		// Inner aliases the plaintext of blob, which is shorter than blob.
		m.put(k, res, len(blob)+len(res.Next))
	}
	return res, err
}

// VerifySig is o.VerifySig(sp), answered from the memo when the same key has
// already verified the same signature over the same Seq and Blob.
func (m *Memo) VerifySig(o *Onion, sp ed25519.PublicKey) error {
	h := sha256.New()
	h.Write([]byte(memoSigDomain))
	writeField(h, sp)
	writeField(h, o.Sig)
	var seq [8]byte
	binary.BigEndian.PutUint64(seq[:], o.Seq)
	h.Write(seq[:])
	writeField(h, o.Blob)
	var k [32]byte
	h.Sum(k[:0])
	if _, ok := m.get(k); ok {
		return nil
	}
	if err := o.VerifySig(sp); err != nil {
		return err
	}
	m.put(k, PeelResult{}, 0)
	return nil
}

// writeField hashes b with a length prefix, so that no two field sequences
// hash the same bytes.
func writeField(h hash.Hash, b []byte) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(b)))
	h.Write(n[:])
	h.Write(b)
}

func (m *Memo) get(k [32]byte) (PeelResult, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.cur[k]; ok {
		return e.res, true
	}
	e, ok := m.prev[k]
	if ok {
		m.insertLocked(k, e)
	}
	return e.res, ok
}

func (m *Memo) put(k [32]byte, res PeelResult, size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cur[k]; !ok {
		m.insertLocked(k, memoEntry{res: res, cost: memoEntryOverhead + size})
	}
}

// insertLocked adds e to the current generation, turning generations over
// first when it would overflow. An entry too large for a generation is not
// kept at all.
func (m *Memo) insertLocked(k [32]byte, e memoEntry) {
	if e.cost > memoBytes/2 {
		return
	}
	if m.curBytes+e.cost > memoBytes/2 {
		m.prev, m.prevBytes = m.cur, m.curBytes
		m.cur, m.curBytes = make(map[[32]byte]memoEntry), 0
	}
	m.cur[k] = e
	m.curBytes += e.cost
}
