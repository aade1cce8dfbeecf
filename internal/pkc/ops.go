package pkc

import "sync/atomic"

// OpCounts counts the public-key operations this process has run: X25519
// seals and opens, Ed25519 signs, single verifies, and signatures checked
// through VerifyBatch. They are the host-independent cost units of the live
// paths (the live twin of §4.1's message counts): a change that removes
// crypto from a path shows up here exactly, whatever the host's speed.
type OpCounts struct {
	Seal, Open, Sign, Verify, BatchVerify uint64
}

var ops struct {
	seal, open, sign, verify, batchVerify atomic.Uint64
}

// Ops returns the process-wide operation counts so far. Tests read a delta
// around the work they measure.
func Ops() OpCounts {
	return OpCounts{
		Seal:        ops.seal.Load(),
		Open:        ops.open.Load(),
		Sign:        ops.sign.Load(),
		Verify:      ops.verify.Load(),
		BatchVerify: ops.batchVerify.Load(),
	}
}

// Sub returns c - earlier, field by field.
func (c OpCounts) Sub(earlier OpCounts) OpCounts {
	return OpCounts{
		Seal:        c.Seal - earlier.Seal,
		Open:        c.Open - earlier.Open,
		Sign:        c.Sign - earlier.Sign,
		Verify:      c.Verify - earlier.Verify,
		BatchVerify: c.BatchVerify - earlier.BatchVerify,
	}
}
