package main

import (
	"fmt"
	"net"

	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
	"bbmig/internal/core"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// live-lan: full TPM of a live guest between two hosts over one loopback
// TCP connection, back and forth. The 256 MiB kernel-build disk sits on a
// block cache an eighth its size, so pre-copy's snapshot reads mostly miss;
// the raw data path (snapshot reads, framing and writev, destination
// apply, dirty tracking, post-copy push) does nearly all the work, and
// dedup, delta, compression, hostd and the simulator do none.
const (
	lanBlocks      = 65536 // 256 MiB
	lanCacheBlocks = lanBlocks / 8
	lanPages       = 8192 // 32 MiB of guest memory
	lanHotPages    = 1024
	lanPageRate    = 4000 // pages/s: converges in a few memory iterations
	lanSpeedup     = 100  // web-server schedule compression: ~5k guest I/Os/s
	lanKernelOps   = 80000
)

type liveLAN struct {
	disks [2]*blockdev.MemDisk
	vols  [2]*bcache.Cache
	cur   int // index of the volume the guest runs on
	lg    *liveGuest
	ln    net.Listener
	n     uint64
}

func setupLiveLAN(seed int64) (instance, error) {
	img := blockdev.NewMemDisk(lanBlocks, blockdev.BlockSize)
	gen := workload.New(workload.Kernel, lanBlocks, seed)
	buf := make([]byte, blockdev.BlockSize)
	for i := 0; i < lanKernelOps; i++ {
		a := gen.Next()
		if a.Op != blockdev.Write {
			continue
		}
		for n := a.Block; n < a.Block+a.Count && n < lanBlocks; n++ {
			workload.FillBlock(buf, n, 1)
			if err := img.WriteBlock(n, buf); err != nil {
				return nil, err
			}
		}
	}
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	guestVM := vm.New("guest", 1, lanPages, 256)
	fillMemory(guestVM.Memory(), uint64(seed))
	other := blockdev.NewMemDisk(lanBlocks, blockdev.BlockSize)
	return &liveLAN{
		disks: [2]*blockdev.MemDisk{img, other},
		vols:  [2]*bcache.Cache{bcache.New(img, lanCacheBlocks), bcache.New(other, lanCacheBlocks)},
		lg: &liveGuest{
			vm:       guestVM,
			g:        newGuest(workload.NewWebServer(lanBlocks, seed), lanBlocks, lanSpeedup, guestVM.DomainID),
			hotPages: lanHotPages, pageRate: lanPageRate,
		},
		ln: ln,
	}, nil
}

func (l *liveLAN) op(tr *tracer) (*opResult, error) {
	l.n++
	src, dst := l.cur, 1-l.cur
	r, err := l.lg.migrate(engineRun{
		cfg:     core.Config{MaxExtentBlocks: 64, Readahead: 4},
		src:     l.vols[src],
		dst:     l.vols[dst],
		connect: func(tr *tracer) (transport.Conn, transport.Conn, error) { return tcpLink(l.ln, tr) },
		backing: func() (blockdev.Device, blockdev.Device, error) {
			for _, v := range l.vols {
				if err := v.Flush(); err != nil {
					return nil, nil, err
				}
			}
			return l.disks[src], l.disks[dst], nil
		},
	}, tr, l.n)
	if err == nil {
		l.cur = dst
	}
	return r, err
}

func (l *liveLAN) close() { l.ln.Close() }

// tcpLink dials the listener and returns both ends of the connection.
// Traced, the source end is wrapped and the destination socket is timed.
func tcpLink(ln net.Listener, tr *tracer) (transport.Conn, transport.Conn, error) {
	var l net.Listener = ln
	if tr != nil {
		l = &tracedListener{Listener: ln, t: tr}
	}
	type acc struct {
		c   transport.Conn
		err error
	}
	ch := make(chan acc, 1)
	go func() {
		c, err := transport.Accept(l)
		ch <- acc{c, err}
	}()
	cs, err := transport.Dial(ln.Addr().String())
	if err != nil {
		return nil, nil, fmt.Errorf("dial: %w", err) // Accept returns when close() closes ln
	}
	a := <-ch
	if a.err != nil {
		cs.Close()
		return nil, nil, a.err
	}
	if tr != nil {
		return newTracedConn(cs, tr), a.c, nil
	}
	return cs, a.c, nil
}
