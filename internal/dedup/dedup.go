// Package dedup implements content-addressed deduplication for the
// migration transfer path: per-block fingerprints, a destination-side
// fingerprint index over content the destination already holds (retained
// peer copies, disks of hosted clone siblings, blocks received earlier in
// the same migration, and the zero block), and the small payload encodings
// the dedup wire frames carry (fingerprint batches and want-bitmaps).
//
// The paper's block-bitmap (§IV-A-2) deduplicates positionally: a block
// dirtied many times ships once per iteration. This package deduplicates by
// content: a block whose bytes the destination can already produce — at any
// offset, from any retained disk — ships as a 16-byte reference instead of
// a 4 KiB literal, and all-zero blocks ship as references without even a
// round trip. The protocol on top (MsgHashAdvert / MsgHashWant /
// MsgBlockRef, see docs/WIRE.md §10) is negotiated; unconfigured peers keep
// the seed wire format.
//
// Safety model: the index is advisory, never trusted. Every Lookup re-reads
// the candidate block and re-hashes it before claiming the content, so
// stale entries (a source block overwritten since it was observed, a
// corrupt persisted index) degrade to "absent" — a full literal send —
// never to wrong bytes.
package dedup

import (
	"crypto/sha256"
	"fmt"
)

// FingerprintSize is the wire size of one block fingerprint: SHA-256
// truncated to 16 bytes (128 bits), collision-proof at any realistic fleet
// scale and small enough that a reference costs 1/256th of a 4 KiB literal.
const FingerprintSize = 16

// Fingerprint is the content hash of one disk block.
type Fingerprint [FingerprintSize]byte

// Of fingerprints one block's content.
func Of(data []byte) Fingerprint {
	sum := sha256.Sum256(data)
	var fp Fingerprint
	copy(fp[:], sum[:FingerprintSize])
	return fp
}

// IsZero reports whether data is all zero bytes (the candidate for
// zero-block elision).
func IsZero(data []byte) bool {
	for _, b := range data {
		if b != 0 {
			return false
		}
	}
	return true
}

// zeroFPs caches the zero-block fingerprint per block size.
var zeroFPs = map[int]Fingerprint{}

// ZeroFingerprint returns the fingerprint of an all-zero block of the given
// size. Every Index serves it without any observation: zero content is
// always materializable.
func ZeroFingerprint(blockSize int) Fingerprint {
	if fp, ok := zeroFPs[blockSize]; ok {
		return fp
	}
	return Of(make([]byte, blockSize))
}

func init() {
	// Pre-warm the common block size so the hot path never allocates a
	// scratch zero block (and the map is never written concurrently).
	zeroFPs[4096] = Of(make([]byte, 4096))
}

// AppendFingerprints appends the wire form of fps (FingerprintSize bytes
// each, in order) to buf — the MsgHashAdvert / MsgBlockRef payload encoding.
func AppendFingerprints(buf []byte, fps []Fingerprint) []byte {
	for i := range fps {
		buf = append(buf, fps[i][:]...)
	}
	return buf
}

// ParseFingerprints decodes a MsgHashAdvert / MsgBlockRef payload that must
// carry exactly count fingerprints.
func ParseFingerprints(payload []byte, count int) ([]Fingerprint, error) {
	if count < 0 || len(payload)%FingerprintSize != 0 || len(payload)/FingerprintSize != count {
		return nil, fmt.Errorf("dedup: fingerprint payload %d bytes, want %d×%d", len(payload), count, FingerprintSize)
	}
	fps := make([]Fingerprint, count)
	for i := range fps {
		copy(fps[i][:], payload[i*FingerprintSize:])
	}
	return fps, nil
}

// WantLen returns the MsgHashWant payload size for an advert of count
// blocks: one bit per block, LSB-first within each byte.
func WantLen(count int) int { return (count + 7) / 8 }

// SetWant marks block k of a want-bitmap as "send the literal".
func SetWant(buf []byte, k int) { buf[k/8] |= 1 << (k % 8) }

// Want reports whether block k of a want-bitmap asks for the literal.
func Want(buf []byte, k int) bool { return buf[k/8]&(1<<(k%8)) != 0 }

// ClearWant retracts block k's literal request from a want-bitmap — the
// destination does this after a swarm peer produced (and verification
// accepted) the block's content, leaving the source a reference to send.
func ClearWant(buf []byte, k int) { buf[k/8] &^= 1 << (k % 8) }

// WalkWant partitions an advertised extent into maximal same-verdict runs
// of its want-bitmap and calls fn once per run with the run's offset into
// the extent, its length, and whether the destination wants the literal —
// the one sender-side walk both the engine and the pre-sync path share, so
// the run framing cannot diverge between them.
func WalkWant(count int, want []byte, fn func(offset, n int, wanted bool) error) error {
	for k := 0; k < count; {
		wanted := Want(want, k)
		j := k + 1
		for j < count && Want(want, j) == wanted {
			j++
		}
		if err := fn(k, j-k, wanted); err != nil {
			return err
		}
		k = j
	}
	return nil
}
