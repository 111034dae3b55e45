package dedup

import (
	"fmt"
	"runtime"
	"sync"
)

// BlockReader is the slice of blockdev.Device an Index needs from a content
// source: random-access block reads plus shape. blockdev.MemDisk and
// blockdev.FileDisk both satisfy it.
type BlockReader interface {
	// ReadBlock copies block n into buf (len(buf) == BlockSize()).
	ReadBlock(n int, buf []byte) error
	// NumBlocks is the device size in blocks.
	NumBlocks() int
	// BlockSize is the block size in bytes.
	BlockSize() int
}

// loc names where one fingerprint's content can be read back: a block of a
// registered source.
type loc struct {
	source string
	block  int
}

// Index maps block fingerprints to locations where the content can be read
// back — the destination side of content-addressed transfer. Sources are
// named block devices (retained peer copies, hosted clone disks, the live
// VBD of an in-flight migration); entries are observations "source S held
// content H at block N when we looked".
//
// Observations are advisory: guest writes move content underneath the index
// all the time. Lookup therefore re-reads and re-hashes the candidate block
// before claiming the content, evicting entries that no longer verify, so
// the worst a stale (or corrupt-loaded) index can cause is a literal send
// that deduplication would have saved — never wrong bytes.
//
// An Index is safe for concurrent use and is meant to be shared: one
// hostd.Machine maintains one index across every inbound migration and
// pre-sync it serves.
type Index struct {
	mu        sync.Mutex
	blockSize int
	zero      Fingerprint
	sources   map[string]BlockReader
	entries   map[Fingerprint]loc
	rev       map[string]map[int]Fingerprint // source → block → observed fp
}

// NewIndex returns an empty index for devices of the given block size.
func NewIndex(blockSize int) *Index {
	if blockSize <= 0 {
		panic(fmt.Sprintf("dedup: block size %d", blockSize))
	}
	return &Index{
		blockSize: blockSize,
		zero:      ZeroFingerprint(blockSize),
		sources:   make(map[string]BlockReader),
		entries:   make(map[Fingerprint]loc),
		rev:       make(map[string]map[int]Fingerprint),
	}
}

// BlockSize returns the block size the index was built for.
func (ix *Index) BlockSize() int { return ix.blockSize }

// Len reports how many fingerprints are currently indexed (the implicit
// zero fingerprint not counted).
func (ix *Index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.entries)
}

// RegisterSource makes (or re-makes) a named device available for lookups.
// Entries previously loaded or observed under the same name become
// resolvable again; registering does not scan — call ScanSource for that.
func (ix *Index) RegisterSource(name string, dev BlockReader) error {
	if dev.BlockSize() != ix.blockSize {
		return fmt.Errorf("dedup: source %q block size %d, index %d", name, dev.BlockSize(), ix.blockSize)
	}
	ix.mu.Lock()
	ix.sources[name] = dev
	ix.mu.Unlock()
	return nil
}

// HasSource reports whether a source of that name is registered.
func (ix *Index) HasSource(name string) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	_, ok := ix.sources[name]
	return ok
}

// DropSource unregisters a source and evicts every entry observed on it.
func (ix *Index) DropSource(name string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	delete(ix.sources, name)
	for block, fp := range ix.rev[name] {
		if l, ok := ix.entries[fp]; ok && l.source == name && l.block == block {
			delete(ix.entries, fp)
		}
	}
	delete(ix.rev, name)
}

// Observe records that the named source held content fp at block. Zero
// fingerprints are not stored (the zero block is implicit); an overwrite of
// a block retracts the entry its previous content claimed there.
func (ix *Index) Observe(source string, block int, fp Fingerprint) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.observeLocked(source, block, fp)
}

func (ix *Index) observeLocked(source string, block int, fp Fingerprint) {
	blocks := ix.rev[source]
	if blocks == nil {
		blocks = make(map[int]Fingerprint)
		ix.rev[source] = blocks
	}
	if prev, ok := blocks[block]; ok && prev != fp {
		if l, ok := ix.entries[prev]; ok && l.source == source && l.block == block {
			delete(ix.entries, prev)
		}
	}
	if fp == ix.zero {
		delete(blocks, block)
		return
	}
	blocks[block] = fp
	ix.entries[fp] = loc{source, block}
}

// ScanSource fingerprints every block of a registered source and records the
// observations, returning how many non-zero blocks it indexed. Call it once
// when a retained or clone disk first joins the index; later migrations keep
// the index warm through their own observations.
func (ix *Index) ScanSource(name string) (int, error) {
	ix.mu.Lock()
	dev := ix.sources[name]
	ix.mu.Unlock()
	if dev == nil {
		return 0, fmt.Errorf("dedup: scan of unregistered source %q", name)
	}
	return ix.ScanReader(name, dev)
}

// ScanReader fingerprints every block of r and records the observations
// under source name, like ScanSource, but reading from a caller-supplied
// view instead of the registered device. Hosts pass a frozen snapshot of a
// live volume here: the scan comes off the guest's hot path and observes a
// consistent image, while lookups still verify against the registered live
// device, so an observation the guest overwrites mid-scan simply misses
// later (it can never resolve to wrong bytes).
//
// Blocks are read in order on the calling goroutine and hashed on
// GOMAXPROCS goroutines, a bounded number of batches at a time; the
// observations are recorded in block order, so the index ends up exactly as
// a one-block-at-a-time scan leaves it. On a read error the blocks before
// the failing one are observed and counted, and the error is returned.
func (ix *Index) ScanReader(name string, r BlockReader) (int, error) {
	return ix.scan(name, r, runtime.GOMAXPROCS(0))
}

// scanBatchBlocks is how many blocks one scan batch carries: 256 KiB of
// 4 KiB blocks, large enough that handing a batch to a hasher costs nothing
// next to hashing it.
const scanBatchBlocks = 64

// scanBatch is one run of consecutive blocks between its read and its
// observation.
type scanBatch struct {
	start, n int
	buf      []byte
	fps      []Fingerprint
	done     chan struct{}
}

// scan is ScanReader on a given number of hashing goroutines.
func (ix *Index) scan(name string, r BlockReader, workers int) (int, error) {
	workers = max(workers, 1)
	bs := ix.blockSize
	total := r.NumBlocks()
	// Batches in flight: each hasher has one to work on and one queued,
	// plus the one being read. Memory stays bounded whatever the disk size.
	inflight := 2*workers + 1
	jobs := make(chan *scanBatch, inflight)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range jobs {
				for k := 0; k < b.n; k++ {
					b.fps[k] = Of(b.buf[k*bs : (k+1)*bs])
				}
				b.done <- struct{}{}
			}
		}()
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	indexed := 0
	var pending []*scanBatch // submitted, oldest first
	var free []*scanBatch
	// observe waits for the oldest submitted batch and records its blocks.
	observe := func() {
		b := pending[0]
		pending = pending[1:]
		<-b.done
		ix.mu.Lock()
		for k := 0; k < b.n; k++ {
			if b.fps[k] != ix.zero {
				ix.observeLocked(name, b.start+k, b.fps[k])
				indexed++
			}
		}
		ix.mu.Unlock()
		free = append(free, b)
	}
	var readErr error
	for next := 0; next < total && readErr == nil; {
		if len(pending) == inflight {
			observe()
		}
		var b *scanBatch
		if n := len(free); n > 0 {
			b, free = free[n-1], free[:n-1]
		} else {
			b = &scanBatch{
				buf:  make([]byte, scanBatchBlocks*bs),
				fps:  make([]Fingerprint, scanBatchBlocks),
				done: make(chan struct{}, 1),
			}
		}
		b.start, b.n = next, min(scanBatchBlocks, total-next)
		for k := 0; k < b.n; k++ {
			if err := r.ReadBlock(next+k, b.buf[k*bs:(k+1)*bs]); err != nil {
				b.n, readErr = k, err
				break
			}
		}
		next += b.n
		jobs <- b
		pending = append(pending, b)
	}
	for len(pending) > 0 {
		observe()
	}
	return indexed, readErr
}

// Lookup materializes the content behind fp, or reports that the index
// cannot. The zero fingerprint always succeeds. Any other hit re-reads the
// recorded block and re-hashes it; a mismatch (the block was overwritten
// since the observation) evicts the entry and reports a miss, so callers
// can trust returned bytes unconditionally. The returned slice is freshly
// allocated and the caller's to keep.
func (ix *Index) Lookup(fp Fingerprint) ([]byte, bool) {
	if fp == ix.zero {
		return make([]byte, ix.blockSize), true
	}
	ix.mu.Lock()
	l, ok := ix.entries[fp]
	var dev BlockReader
	if ok {
		dev = ix.sources[l.source]
	}
	ix.mu.Unlock()
	if !ok || dev == nil {
		return nil, false
	}
	if l.block < 0 || l.block >= dev.NumBlocks() {
		ix.evict(fp, l)
		return nil, false
	}
	buf := make([]byte, ix.blockSize)
	if err := dev.ReadBlock(l.block, buf); err != nil {
		ix.evict(fp, l)
		return nil, false
	}
	if Of(buf) != fp {
		ix.evict(fp, l)
		return nil, false
	}
	return buf, true
}

// Answer is the destination's half of one MsgHashAdvert: every advertised
// fingerprint the index can produce (verified by Lookup's re-hash) is
// staged for the references that follow, and everything else gets its want
// bit set. Zero fingerprints are neither wanted nor staged — zeros are
// implicit. Both the engine's receive loop and ServeSync answer adverts
// through here, so the reply semantics cannot diverge.
func (ix *Index) Answer(fps []Fingerprint) (want []byte, stage map[Fingerprint][]byte) {
	want = make([]byte, WantLen(len(fps)))
	stage = make(map[Fingerprint][]byte)
	for k, fp := range fps {
		if fp == ix.zero {
			continue
		}
		if _, ok := stage[fp]; ok {
			continue
		}
		if content, ok := ix.Lookup(fp); ok {
			stage[fp] = content
		} else {
			SetWant(want, k)
		}
	}
	return want, stage
}

// Materialize resolves one MsgBlockRef fingerprint: staged content first
// (captured at advert time, so it cannot be overwritten underneath), the
// index (verify-on-read) as fallback, zeros implicitly. ok is false when
// the content cannot be produced — a protocol error for the caller, never
// a silent wrong write.
func (ix *Index) Materialize(stage map[Fingerprint][]byte, fp Fingerprint) (content []byte, ok bool) {
	if fp == ix.zero {
		return make([]byte, ix.blockSize), true
	}
	if c := stage[fp]; c != nil {
		return c, true
	}
	return ix.Lookup(fp)
}

// evict removes one entry if it still names the given location.
func (ix *Index) evict(fp Fingerprint, l loc) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if cur, ok := ix.entries[fp]; ok && cur == l {
		delete(ix.entries, fp)
		if blocks := ix.rev[l.source]; blocks != nil && blocks[l.block] == fp {
			delete(blocks, l.block)
		}
	}
}
