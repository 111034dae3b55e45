package main

import (
	"math/rand"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
	"bbmig/internal/core"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// im-return-wan: Incremental Migration back (§V) of a live guest over an
// asymmetric WAN to its home host, which still holds the image as it was
// before the guest left. While away the guest rewrote 256 bytes in 12.5%
// of its blocks; delta encoding ships those as patches, one signature
// round trip per extent. The disk fits in cache, so reads hit; the guest's
// memory working set is dirtied faster than the uplink drains it, so the
// freeze copies the whole working set and downtime is its time on the wire.
const (
	imBlocks     = 16384 // 64 MiB
	imRunBlocks  = 16    // rewritten blocks come in runs of this many
	imHotRuns    = imBlocks / 8 / imRunBlocks
	imRewriteLen = 256
	imPages      = 2048 // 8 MiB of guest memory
	imHotPages   = 1024
	imPageRate   = 25000 // pages/s, above the uplink's ~12k pages/s
	imSpeedup    = 50
	imFrameStall = 40 * time.Microsecond
	imUpBps      = 100e6
	imDownBps    = 400e6
)

type imReturn struct {
	away, home *bcache.Cache
	hot        *bitmap.Bitmap
	rewriteAt  []int // byte offset of each block's rewrite
	baseGen    uint32
	lg         *liveGuest
	dirty      []int // blocks to restore before the next operation
	n          uint64
	buf, head  []byte
}

func setupIMReturn(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	im := &imReturn{
		away:      bcache.New(blockdev.NewMemDisk(imBlocks, blockdev.BlockSize), imBlocks),
		home:      bcache.New(blockdev.NewMemDisk(imBlocks, blockdev.BlockSize), imBlocks),
		hot:       bitmap.New(imBlocks),
		rewriteAt: make([]int, imBlocks),
		baseGen:   uint32(rng.Intn(1000)) + 2,
		buf:       make([]byte, blockdev.BlockSize),
		head:      make([]byte, blockdev.BlockSize),
	}
	for _, run := range rng.Perm(imBlocks / imRunBlocks)[:imHotRuns] {
		im.hot.SetRange(run*imRunBlocks, run*imRunBlocks+imRunBlocks)
	}
	for n := range im.rewriteAt {
		im.rewriteAt[n] = rng.Intn(blockdev.BlockSize/imRewriteLen) * imRewriteLen
	}
	for n := 0; n < imBlocks; n++ {
		if err := im.restore(n); err != nil {
			return nil, err
		}
	}
	guestVM := vm.New("guest", 1, imPages, 256)
	fillMemory(guestVM.Memory(), uint64(seed))
	im.lg = &liveGuest{
		vm:       guestVM,
		g:        newGuest(workload.NewWebServer(imBlocks, seed), imBlocks, imSpeedup, guestVM.DomainID),
		hotPages: imHotPages, pageRate: imPageRate,
	}
	return im, nil
}

// restore writes block n's pre-migration content on both hosts: the home
// copy as the guest left it, the away copy with the rewrite if n is hot.
func (im *imReturn) restore(n int) error {
	workload.FillBlock(im.buf, n, im.baseGen)
	if err := im.home.WriteBlock(n, im.buf); err != nil {
		return err
	}
	if im.hot.Test(n) {
		workload.FillBlock(im.head, n+imBlocks, im.baseGen+1)
		off := im.rewriteAt[n]
		copy(im.buf[off:off+imRewriteLen], im.head)
	}
	return im.away.WriteBlock(n, im.buf)
}

func (im *imReturn) op(tr *tracer) (*opResult, error) {
	// Every operation starts from the same divergence: restore what the
	// last one changed, and forget the guest's writes there.
	for _, n := range im.dirty {
		if err := im.restore(n); err != nil {
			return nil, err
		}
		im.lg.g.gens[n] = 0
	}
	im.n++
	r, err := im.lg.migrate(engineRun{
		cfg:     core.Config{MaxExtentBlocks: imRunBlocks, Delta: true},
		src:     im.away,
		dst:     im.home,
		initial: im.hot.Clone(),
		connect: func(tr *tracer) (transport.Conn, transport.Conn, error) {
			pa, pb := transport.NewPipe(256)
			var cs transport.Conn = transport.NewWAN(pa, imFrameStall, imUpBps)
			if tr != nil {
				cs = newTracedConn(cs, tr)
			}
			return cs, transport.NewWAN(pb, imFrameStall, imDownBps), nil
		},
	}, tr, im.n)
	im.dirty = im.dirty[:0]
	im.hot.ForEachSet(func(n int) bool {
		im.dirty = append(im.dirty, n)
		return true
	})
	for n, gen := range im.lg.g.gens {
		if gen != 0 && !im.hot.Test(n) {
			im.dirty = append(im.dirty, n)
		}
	}
	return r, err
}

func (im *imReturn) close() {}
