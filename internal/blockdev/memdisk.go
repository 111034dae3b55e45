package blockdev

import (
	"fmt"
	"sync"

	"bbmig/internal/bitmap"
)

// memDiskShards is the lock-striping width: block state is spread over this
// many independently locked shards so the parallel migration pipeline's
// scatter writers and the guest workload don't serialize on one mutex. 16
// shards keeps per-disk overhead trivial while letting a worker pool scale.
const memDiskShards = 16

// MemDisk is a RAM-backed Device. Blocks are allocated lazily, so a "40 GB"
// MemDisk that is mostly zeros costs memory proportional to its written
// footprint only — this is what lets integration tests and the simulator
// instantiate paper-scale VBDs. Block state is sharded by block number, so
// concurrent readers and writers of different blocks proceed in parallel.
//
// Block n lives in shard n%memDiskShards at shard-local index
// k = n/memDiskShards, found through a two-level table with no map lookup:
// dir[k>>memDiskLeafBits] is a leaf of memDiskLeafBlocks block slices,
// allocated on the shard's first write into that range, and the block is
// entry k&(memDiskLeafBlocks-1) of it. The directory costs one pointer per
// memDiskShards*memDiskLeafBlocks blocks of capacity (2 KiB per GiB of 4
// KiB blocks); leaves and block storage exist only where blocks were
// written.
type MemDisk struct {
	shards    [memDiskShards]memDiskShard
	blockSize int
	numBlocks int
}

type memDiskShard struct {
	mu      sync.RWMutex
	dir     []*memDiskLeaf // leaf i holds shard-local blocks [i<<memDiskLeafBits, (i+1)<<memDiskLeafBits)
	written int            // blocks ever written (non-nil leaf entries)
	slab    []byte         // spare storage first-writes carve block slices from
}

// memDiskLeafBits sizes the second level of the block table: a leaf maps
// 1<<memDiskLeafBits consecutive shard-local blocks.
const (
	memDiskLeafBits   = 6
	memDiskLeafBlocks = 1 << memDiskLeafBits
)

// memDiskLeaf holds the storage of one range of a shard's blocks; a nil
// entry is a never-written block, which reads as zeros.
type memDiskLeaf [memDiskLeafBlocks][]byte

// memDiskSlabBlocks bounds how many blocks' worth of storage a shard
// allocates at once. Carving first-write block storage from slabs keeps a
// bulk restore (a migration landing on a cold destination disk) at one
// allocation per slab instead of one per block, without giving up the
// lazy, sparse footprint: slack is bounded by one partial slab per shard.
const memDiskSlabBlocks = 64

// NewMemDisk returns a zero-filled MemDisk with numBlocks blocks of
// blockSize bytes.
func NewMemDisk(numBlocks, blockSize int) *MemDisk {
	if numBlocks < 0 || blockSize <= 0 {
		panic(fmt.Sprintf("blockdev: bad geometry %dx%d", numBlocks, blockSize))
	}
	m := &MemDisk{
		blockSize: blockSize,
		numBlocks: numBlocks,
	}
	perShard := (numBlocks + memDiskShards - 1) / memDiskShards
	leaves := (perShard + memDiskLeafBlocks - 1) / memDiskLeafBlocks
	for i := range m.shards {
		m.shards[i].dir = make([]*memDiskLeaf, leaves)
	}
	return m
}

// locate returns block n's shard and shard-local index. n must be in range.
func (m *MemDisk) locate(n int) (*memDiskShard, uint) {
	u := uint(n)
	return &m.shards[u%memDiskShards], u / memDiskShards
}

// block returns the storage of shard-local block k, or nil if it was never
// written. Caller holds s.mu.
func (s *memDiskShard) block(k uint) []byte {
	if leaf := s.dir[k>>memDiskLeafBits]; leaf != nil {
		return leaf[k&(memDiskLeafBlocks-1)]
	}
	return nil
}

// BlockSize implements Device.
func (m *MemDisk) BlockSize() int { return m.blockSize }

// NumBlocks implements Device.
func (m *MemDisk) NumBlocks() int { return m.numBlocks }

// ReadBlock implements Device. Never-written blocks read as zeros.
func (m *MemDisk) ReadBlock(n int, dst []byte) error {
	if err := CheckRange(m, n); err != nil {
		return err
	}
	if len(dst) < m.blockSize {
		return fmt.Errorf("blockdev: read buffer %d < block size %d", len(dst), m.blockSize)
	}
	s, k := m.locate(n)
	s.mu.RLock()
	blk := s.block(k)
	if blk == nil {
		s.mu.RUnlock()
		clear(dst[:m.blockSize])
		return nil
	}
	copy(dst, blk)
	s.mu.RUnlock()
	return nil
}

// WriteBlock implements Device.
func (m *MemDisk) WriteBlock(n int, src []byte) error {
	if err := CheckRange(m, n); err != nil {
		return err
	}
	if len(src) < m.blockSize {
		return fmt.Errorf("blockdev: write buffer %d < block size %d", len(src), m.blockSize)
	}
	s, k := m.locate(n)
	s.mu.Lock()
	leaf := s.dir[k>>memDiskLeafBits]
	if leaf == nil {
		leaf = new(memDiskLeaf)
		s.dir[k>>memDiskLeafBits] = leaf
	}
	blk := leaf[k&(memDiskLeafBlocks-1)]
	if blk == nil {
		if len(s.slab) < m.blockSize {
			// Size the slab to the disk: tiny disks get single-block slabs
			// so an 8-block test fixture doesn't allocate 64 blocks' slack.
			blocks := (m.numBlocks + memDiskShards - 1) / memDiskShards
			if blocks > memDiskSlabBlocks {
				blocks = memDiskSlabBlocks
			}
			if blocks < 1 {
				blocks = 1
			}
			s.slab = make([]byte, blocks*m.blockSize)
		}
		blk = s.slab[:m.blockSize:m.blockSize]
		s.slab = s.slab[m.blockSize:]
		leaf[k&(memDiskLeafBlocks-1)] = blk
		s.written++
	}
	copy(blk, src)
	s.mu.Unlock()
	return nil
}

// WrittenBlocks returns how many blocks have ever been written (the
// allocation footprint).
func (m *MemDisk) WrittenBlocks() int {
	total := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		total += s.written
		s.mu.RUnlock()
	}
	return total
}

// AllocatedBitmap implements Allocator: one set bit per block that has ever
// been written. Blocks outside the bitmap read as zeros, so a migration may
// skip them when the destination device is freshly zeroed.
func (m *MemDisk) AllocatedBitmap() *bitmap.Bitmap {
	bm := bitmap.New(m.numBlocks)
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for li, leaf := range s.dir {
			if leaf == nil {
				continue
			}
			for j, blk := range leaf {
				if blk != nil {
					bm.Set((li<<memDiskLeafBits+j)*memDiskShards + i)
				}
			}
		}
		s.mu.RUnlock()
	}
	return bm
}
