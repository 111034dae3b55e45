package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"bbmig/internal/blockdev"
)

// sequentialScan is the one-block-at-a-time scan ScanReader must match:
// read, hash, observe, in block order, stopping at the first read error.
func sequentialScan(ix *Index, name string, r BlockReader) (int, error) {
	buf := make([]byte, ix.blockSize)
	indexed := 0
	for n := 0; n < r.NumBlocks(); n++ {
		if err := r.ReadBlock(n, buf); err != nil {
			return indexed, err
		}
		fp := Of(buf)
		if fp == ix.zero {
			continue
		}
		ix.Observe(name, n, fp)
		indexed++
	}
	return indexed, nil
}

// failingReader fails every read of block failAt.
type failingReader struct {
	BlockReader
	failAt int
}

var errInjectedRead = errors.New("injected read error")

func (r failingReader) ReadBlock(n int, buf []byte) error {
	if n == r.failAt {
		return errInjectedRead
	}
	return r.BlockReader.ReadBlock(n, buf)
}

// scanDisk builds a disk that is not a whole number of scan batches and
// mixes zero blocks, content repeated across batches, and unique content.
func scanDisk() *blockdev.MemDisk {
	blocks := 3*scanBatchBlocks + 17
	disk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	for n := 0; n < blocks; n++ {
		switch {
		case n%7 == 3:
			// zero
		case n%5 == 0:
			fill(disk, n, byte(n%3)) // three contents, repeated all over
		default:
			fill(disk, n, byte(n))
		}
	}
	return disk
}

// seededIndex returns an index that already holds observations under the
// scanned name, some of which the scan will retract.
func seededIndex(disk *blockdev.MemDisk) *Index {
	ix := NewIndex(blockdev.BlockSize)
	other := blockdev.NewMemDisk(4, blockdev.BlockSize)
	fill(other, 0, 0xAA)
	buf := make([]byte, blockdev.BlockSize)
	_ = other.ReadBlock(0, buf)
	ix.Observe("vol", 10, Of(buf))
	ix.Observe("vol", 3, Of(buf)) // a zero block in scanDisk: retracted
	_ = disk.ReadBlock(scanBatchBlocks+1, buf)
	ix.Observe("peer", 2, Of(buf)) // same content elsewhere: the scan moves the entry
	return ix
}

func TestScanReaderParallelMatchesSequential(t *testing.T) {
	disk := scanDisk()
	blocks := disk.NumBlocks()
	readers := map[string]BlockReader{"whole": disk}
	for _, at := range []int{0, 1, scanBatchBlocks - 1, scanBatchBlocks, scanBatchBlocks + 1, 2*scanBatchBlocks + 5, blocks - 1} {
		readers[fmt.Sprintf("fail-at-%d", at)] = failingReader{disk, at}
	}
	for name, r := range readers {
		want := seededIndex(disk)
		wantN, wantErr := sequentialScan(want, "vol", r)
		for _, workers := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("%s/workers-%d", name, workers), func(t *testing.T) {
				got := seededIndex(disk)
				gotN, gotErr := got.scan("vol", r, workers)
				if gotN != wantN || !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("scan = (%d, %v), sequential = (%d, %v)", gotN, gotErr, wantN, wantErr)
				}
				if !reflect.DeepEqual(got.entries, want.entries) || !reflect.DeepEqual(got.rev, want.rev) {
					t.Fatalf("index differs from the sequential scan's: %d vs %d entries", len(got.entries), len(want.entries))
				}
			})
		}
	}
	// The exported entry point is the same scan on GOMAXPROCS hashers.
	got, want := seededIndex(disk), seededIndex(disk)
	gotN, err := got.ScanReader("vol", disk)
	if err != nil {
		t.Fatal(err)
	}
	wantN, _ := sequentialScan(want, "vol", disk)
	if gotN != wantN || !reflect.DeepEqual(got.entries, want.entries) || !reflect.DeepEqual(got.rev, want.rev) {
		t.Fatalf("ScanReader indexed %d, sequential %d, or the indexes differ", gotN, wantN)
	}
}

// FuzzFingerprintFrames checks the dedup payload codecs on arbitrary input:
// ParseFingerprints accepts exactly count×16 bytes and what it accepts
// round-trips through AppendFingerprints, and WalkWant partitions an
// advert into alternating runs that agree with Want.
func FuzzFingerprintFrames(f *testing.F) {
	f.Add(make([]byte, 32), 2)
	f.Add(bytes.Repeat([]byte{0xA5}, 48), 3)
	f.Add([]byte{0xFF, 0x00, 0x0F}, 20)
	f.Add([]byte{}, 0)
	f.Add(make([]byte, 16), -1)
	f.Fuzz(func(t *testing.T, payload []byte, count int) {
		fps, err := ParseFingerprints(payload, count)
		exact := count >= 0 && len(payload)%FingerprintSize == 0 && len(payload)/FingerprintSize == count
		if !exact {
			if err == nil {
				t.Fatalf("accepted %d bytes as %d fingerprints", len(payload), count)
			}
		} else {
			if err != nil {
				t.Fatalf("rejected %d bytes as %d fingerprints: %v", len(payload), count, err)
			}
			if back := AppendFingerprints(nil, fps); !bytes.Equal(back, payload) {
				t.Fatal("fingerprints do not round-trip")
			}
		}

		// Read the payload as a want bitmap for an advert of up to its bit
		// count.
		n := 0
		if bits := len(payload) * 8; bits > 0 {
			n = int(uint(count) % uint(bits+1))
		}
		want := payload[:WantLen(n)]
		next, first, prev := 0, true, false
		err = WalkWant(n, want, func(off, run int, wanted bool) error {
			if off != next || run < 1 || off+run > n {
				t.Fatalf("run [%d,+%d) after %d of %d", off, run, next, n)
			}
			if !first && wanted == prev {
				t.Fatalf("runs at %d do not alternate", off)
			}
			for k := off; k < off+run; k++ {
				if Want(want, k) != wanted {
					t.Fatalf("block %d in a wanted=%v run has want bit %v", k, wanted, !wanted)
				}
			}
			next, first, prev = off+run, false, wanted
			return nil
		})
		if err != nil || next != n {
			t.Fatalf("walk covered [0,%d) of %d: %v", next, n, err)
		}
	})
}
