package pkc

import (
	"crypto/ed25519"
	"runtime"
	"sync"
)

// This file is the batch-verification entry point of the report-ingest
// pipeline (DESIGN.md §11). Signature checks dominate the agent's ingest hot
// path at scale; batching amortizes their dispatch and spreads them across
// every core instead of paying one serialized Verify per report per frame.
//
// The standard library exposes no algebraic Ed25519 batch equation, so
// VerifyBatch gains its speedup from parallelism and amortized scheduling
// rather than shared scalar multiplication; the entry point is shaped so an
// algebraic verifier (a random-linear-combination check over edwards25519)
// can slot in behind it without touching any caller.

// verifyBatchSerialBelow is the batch size under which the worker fan-out
// costs more than it saves; small batches verify inline.
const verifyBatchSerialBelow = 8

// VerifyBatch checks len(msgs) signature triples — keys[i] over msgs[i] with
// sigs[i] — and reports each triple's validity. The three slices must have
// equal length. A malformed key or signature yields false for that triple
// only; no triple's outcome depends on any other, so one forged report in a
// batch cannot shadow or invalidate its neighbors.
//
// Batches of verifyBatchSerialBelow or more triples are split across
// min(GOMAXPROCS, ceil(n/serialBelow)) workers in contiguous chunks.
func VerifyBatch(keys []ed25519.PublicKey, msgs, sigs [][]byte) []bool {
	n := len(msgs)
	if len(keys) != n || len(sigs) != n {
		panic("pkc: VerifyBatch slice lengths differ")
	}
	ops.batchVerify.Add(uint64(n))
	ok := make([]bool, n)
	workers := runtime.GOMAXPROCS(0)
	if max := (n + verifyBatchSerialBelow - 1) / verifyBatchSerialBelow; workers > max {
		workers = max
	}
	if n < verifyBatchSerialBelow || workers <= 1 {
		for i := range msgs {
			ok[i] = verify(keys[i], msgs[i], sigs[i])
		}
		return ok
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				ok[i] = verify(keys[i], msgs[i], sigs[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	return ok
}
