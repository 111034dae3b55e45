package blockdev

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"bbmig/internal/bitmap"
)

func fillPattern(t *testing.T, d Device, seed int64, frac float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, d.BlockSize())
	for n := 0; n < d.NumBlocks(); n++ {
		if rng.Float64() > frac {
			continue
		}
		rng.Read(buf)
		if err := d.WriteBlock(n, buf); err != nil {
			t.Fatalf("write %d: %v", n, err)
		}
	}
}

func testDeviceBasics(t *testing.T, d Device) {
	t.Helper()
	bs := d.BlockSize()
	buf := make([]byte, bs)
	// unwritten blocks read as zeros
	if err := d.ReadBlock(0, buf); err != nil {
		t.Fatalf("read zero block: %v", err)
	}
	if !bytes.Equal(buf, make([]byte, bs)) {
		t.Fatal("fresh block not zero")
	}
	// write/read round trip
	src := bytes.Repeat([]byte{0xAB}, bs)
	if err := d.WriteBlock(3, src); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := d.ReadBlock(3, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, src) {
		t.Fatal("round trip mismatch")
	}
	// overwrite
	src2 := bytes.Repeat([]byte{0x12}, bs)
	if err := d.WriteBlock(3, src2); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	d.ReadBlock(3, buf)
	if !bytes.Equal(buf, src2) {
		t.Fatal("overwrite not visible")
	}
	// range errors
	if err := d.ReadBlock(d.NumBlocks(), buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read OOB: %v", err)
	}
	if err := d.WriteBlock(-1, src); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write OOB: %v", err)
	}
	// short buffers
	if err := d.ReadBlock(0, buf[:10]); err == nil {
		t.Fatal("short read buffer accepted")
	}
	if err := d.WriteBlock(0, buf[:10]); err == nil {
		t.Fatal("short write buffer accepted")
	}
}

func TestMemDiskBasics(t *testing.T) {
	testDeviceBasics(t, NewMemDisk(16, BlockSize))
}

func TestFileDiskBasics(t *testing.T) {
	d, err := CreateFileDisk(filepath.Join(t.TempDir(), "img"), 16, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	testDeviceBasics(t, d)
}

func TestMemDiskLazyAllocation(t *testing.T) {
	d := NewMemDisk(1<<20, BlockSize) // "4 GiB" disk
	if d.WrittenBlocks() != 0 {
		t.Fatal("blocks allocated before write")
	}
	buf := make([]byte, BlockSize)
	d.WriteBlock(12345, buf)
	d.WriteBlock(12345, buf)
	if d.WrittenBlocks() != 1 {
		t.Fatalf("WrittenBlocks = %d", d.WrittenBlocks())
	}
}

func TestFileDiskReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img")
	d, err := CreateFileDisk(path, 8, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.Repeat([]byte{7}, BlockSize)
	d.WriteBlock(5, src)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2, err := OpenFileDisk(path, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumBlocks() != 8 {
		t.Fatalf("NumBlocks = %d", d2.NumBlocks())
	}
	buf := make([]byte, BlockSize)
	d2.ReadBlock(5, buf)
	if !bytes.Equal(buf, src) {
		t.Fatal("persisted block mismatch")
	}
}

func TestOpenFileDiskRejectsBadSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img")
	d, _ := CreateFileDisk(path, 2, 100) // 200 bytes
	d.Close()
	if _, err := OpenFileDisk(path, BlockSize); err == nil {
		t.Fatal("misaligned image accepted")
	}
	if _, err := OpenFileDisk(filepath.Join(t.TempDir(), "missing"), BlockSize); err == nil {
		t.Fatal("missing image accepted")
	}
}

func TestExtentBlocks(t *testing.T) {
	cases := []struct {
		ext    Extent
		lo, hi int
	}{
		{Extent{0, 0}, 0, 0},
		{Extent{0, 1}, 0, 1},
		{Extent{0, 4096}, 0, 1},
		{Extent{0, 4097}, 0, 2},
		{Extent{4095, 2}, 0, 2},
		{Extent{8192, 4096}, 2, 3},
		{Extent{10000, 10000}, 2, 5},
	}
	for _, c := range cases {
		lo, hi := c.ext.Blocks(BlockSize)
		if lo != c.lo || hi != c.hi {
			t.Errorf("Extent%+v.Blocks = [%d,%d), want [%d,%d)", c.ext, lo, hi, c.lo, c.hi)
		}
	}
}

func TestQuickExtentCoversEveryByte(t *testing.T) {
	f := func(offRaw uint32, lenRaw uint16) bool {
		e := Extent{Offset: int64(offRaw), Length: int64(lenRaw)}
		lo, hi := e.Blocks(BlockSize)
		if e.Length == 0 {
			return lo == hi
		}
		// First and last byte of the extent must fall inside [lo, hi).
		first := e.Offset / BlockSize
		last := (e.Offset + e.Length - 1) / BlockSize
		return int64(lo) == first && int64(hi) == last+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintAndDiff(t *testing.T) {
	a := NewMemDisk(64, BlockSize)
	b := NewMemDisk(64, BlockSize)
	fillPattern(t, a, 1, 0.5)
	fillPattern(t, b, 1, 0.5) // same seed → same contents
	fa, err := Fingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := Fingerprint(b)
	if fa != fb {
		t.Fatal("identical disks fingerprint differently")
	}
	diffs, err := Diff(a, b)
	if err != nil || len(diffs) != 0 {
		t.Fatalf("Diff identical = %v, %v", diffs, err)
	}
	// perturb one block
	buf := bytes.Repeat([]byte{0xEE}, BlockSize)
	b.WriteBlock(17, buf)
	fb2, _ := Fingerprint(b)
	if fa == fb2 {
		t.Fatal("fingerprint blind to change")
	}
	diffs, _ = Diff(a, b)
	if len(diffs) != 1 || diffs[0] != 17 {
		t.Fatalf("Diff = %v, want [17]", diffs)
	}
	bf1, _ := BlockFingerprint(a, 17)
	bf2, _ := BlockFingerprint(b, 17)
	if bf1 == bf2 {
		t.Fatal("block fingerprint blind to change")
	}
}

func TestDiffGeometryMismatch(t *testing.T) {
	if _, err := Diff(NewMemDisk(4, BlockSize), NewMemDisk(5, BlockSize)); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestCapacity(t *testing.T) {
	if got := Capacity(NewMemDisk(10, 4096)); got != 40960 {
		t.Fatalf("Capacity = %d", got)
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "READ" || Write.String() != "WRITE" || Op(9).String() == "" {
		t.Fatal("Op.String wrong")
	}
}

func TestMemDiskConcurrent(t *testing.T) {
	d := NewMemDisk(256, BlockSize)
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(w int) {
			buf := bytes.Repeat([]byte{byte(w)}, BlockSize)
			for i := 0; i < 200; i++ {
				if err := d.WriteBlock((w*64+i)%256, buf); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
		go func() {
			buf := make([]byte, BlockSize)
			for i := 0; i < 200; i++ {
				if err := d.ReadBlock(i%256, buf); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestMemDiskAllocatedBitmap(t *testing.T) {
	d := NewMemDisk(64, BlockSize)
	if d.AllocatedBitmap().Count() != 0 {
		t.Fatal("fresh disk reports allocated blocks")
	}
	buf := make([]byte, BlockSize)
	for _, n := range []int{0, 7, 63} {
		d.WriteBlock(n, buf)
	}
	bm := d.AllocatedBitmap()
	if bm.Count() != 3 || !bm.Test(7) || bm.Test(8) {
		t.Fatalf("allocation bitmap wrong: %v", bm)
	}
	// reads must not allocate
	d.ReadBlock(30, buf)
	if d.AllocatedBitmap().Count() != 3 {
		t.Fatal("read allocated a block")
	}
}

// TestMemDiskMatchesReference drives random writes and reads, concentrated
// on the blocks either side of every shard and leaf boundary, through a
// MemDisk and a reference map, then demands the same contents, the same
// WrittenBlocks and the same AllocatedBitmap.
func TestMemDiskMatchesReference(t *testing.T) {
	const bs = 64
	// Three full leaves per shard plus a ragged tail: the last leaf of the
	// low shards is partly beyond the disk and the high shards end one
	// block earlier.
	const blocks = memDiskShards*memDiskLeafBlocks*3 + 5
	d := NewMemDisk(blocks, bs)
	ref := make(map[int][]byte)
	r := rand.New(rand.NewSource(7))
	pick := func() int {
		if r.Intn(4) == 0 {
			return r.Intn(blocks)
		}
		// Shard-local index on a leaf boundary ±1, in a random shard.
		k := r.Intn(4)*memDiskLeafBlocks + r.Intn(3) - 1
		n := k*memDiskShards + r.Intn(memDiskShards)
		if n < 0 || n >= blocks {
			return blocks - 1 - r.Intn(memDiskShards)
		}
		return n
	}
	buf := make([]byte, bs)
	for i := 0; i < 20000; i++ {
		n := pick()
		if r.Intn(2) == 0 {
			r.Read(buf)
			if err := d.WriteBlock(n, buf); err != nil {
				t.Fatalf("op %d: WriteBlock(%d): %v", i, n, err)
			}
			ref[n] = append([]byte(nil), buf...)
			continue
		}
		if err := d.ReadBlock(n, buf); err != nil {
			t.Fatalf("op %d: ReadBlock(%d): %v", i, n, err)
		}
		want := ref[n]
		if want == nil {
			want = make([]byte, bs)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("op %d: block %d diverged from the reference", i, n)
		}
	}
	for n := 0; n < blocks; n++ {
		if err := d.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		want := ref[n]
		if want == nil {
			want = make([]byte, bs)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("final scan: block %d diverged from the reference", n)
		}
	}
	if got := d.WrittenBlocks(); got != len(ref) {
		t.Fatalf("WrittenBlocks = %d, reference wrote %d", got, len(ref))
	}
	want := bitmap.New(blocks)
	for n := range ref {
		want.Set(n)
	}
	if !d.AllocatedBitmap().Equal(want) {
		t.Fatal("AllocatedBitmap differs from the reference's written set")
	}
}

// TestMemDiskFootprint pins the sparse footprint: a 4 GiB disk with one
// written block costs its block table's directory, one leaf and one slab,
// well under a MiB of heap.
func TestMemDiskFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewMemDisk(1<<20, BlockSize)
	if err := d.WriteBlock(1<<19+3, make([]byte, BlockSize)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Fatalf("one written block grew the heap by %d bytes, want < 1 MiB", grew)
	}
}

// TestMemDiskConcurrentShards gives each goroutine its own shard and has
// it write and read back blocks across that shard's leaves while the
// others do the same: under -race this checks that shards share no
// unlocked state, and the final scan checks no write landed in a
// neighbour's block.
func TestMemDiskConcurrentShards(t *testing.T) {
	const bs = 64
	const blocks = memDiskShards * memDiskLeafBlocks * 4
	d := NewMemDisk(blocks, bs)
	var wg sync.WaitGroup
	errs := make(chan error, memDiskShards)
	for s := 0; s < memDiskShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(s)))
			wbuf := bytes.Repeat([]byte{byte(s + 1)}, bs)
			rbuf := make([]byte, bs)
			for i := 0; i < 2000; i++ {
				n := r.Intn(blocks/memDiskShards)*memDiskShards + s
				if err := d.WriteBlock(n, wbuf); err != nil {
					errs <- err
					return
				}
				if err := d.ReadBlock(n, rbuf); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(rbuf, wbuf) {
					errs <- errors.New("read back another shard's bytes")
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	buf := make([]byte, bs)
	for n := 0; n < blocks; n++ {
		if err := d.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0 && buf[0] != byte(n%memDiskShards+1) {
			t.Fatalf("block %d holds shard %d's bytes", n, buf[0]-1)
		}
	}
	if got, want := d.WrittenBlocks(), d.AllocatedBitmap().Count(); got != want {
		t.Fatalf("WrittenBlocks = %d, AllocatedBitmap counts %d", got, want)
	}
}
