package main

import (
	"encoding/binary"
	"sync"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// firstGuestGen is the first generation the guest stamps into a block it
// writes. Base images use small generations, so FillBlock(n, gen) content
// written by the guest never equals a block's base content.
const firstGuestGen = 1 << 20

// guestReq is one access of the open-loop schedule with the instant it was
// due.
type guestReq struct {
	a   workload.Access
	due time.Time
}

// guest is the open-loop guest driver: a dispatcher issues the generator's
// accesses on their schedule (workload time divided by speedup) whether or
// not earlier ones finished, and one worker serves them in order, like a
// guest with one I/O queue. Each request is timed from when it was due, so
// a stall also charges the requests queued behind it. The driver keeps a
// shadow of its writes: the generation last written to every block and
// whether that write landed after the current migration froze the source.
type guest struct {
	gen     workload.Generator
	speedup float64
	domain  int

	mu      sync.Mutex
	gens    []uint32 // last generation the guest wrote to each block; 0 = base content
	post    []bool   // written after the freeze of the current migration
	frozen  bool
	nextGen uint32

	pending *workload.Access // next access, not yet dispatched
	stop    chan struct{}
	wg      sync.WaitGroup

	// per-window results, owned by the worker/dispatcher until stopWindow
	lat, late  []float64 // microseconds
	ops, fails int64
}

func newGuest(gen workload.Generator, numBlocks int, speedup float64, domain int) *guest {
	return &guest{
		gen: gen, speedup: speedup, domain: domain,
		gens: make([]uint32, numBlocks), post: make([]bool, numBlocks),
		nextGen: firstGuestGen,
	}
}

// startWindow starts driving submit until stopWindow. The schedule resumes
// where the last window stopped, shifted so the next access is due now.
func (g *guest) startWindow(submit func(blockdev.Request) error) {
	g.mu.Lock()
	g.frozen = false
	clear(g.post)
	g.mu.Unlock()
	g.lat, g.late = g.lat[:0], g.late[:0]
	g.ops, g.fails = 0, 0
	g.stop = make(chan struct{})
	// The queue holds the arrivals of a long stall (a freeze, a post-copy
	// pull) without blocking the dispatcher, which would turn the open loop
	// into a closed one.
	q := make(chan guestReq, 1<<14)
	g.wg.Add(2)
	go g.dispatch(q)
	go g.serve(q, submit)
}

// stopWindow stops the dispatcher, lets the worker finish the queued
// requests, and waits for both.
func (g *guest) stopWindow() {
	close(g.stop)
	g.wg.Wait()
}

// markFrozen records that the source has quiesced: every write that
// completes from now on lands on the destination.
func (g *guest) markFrozen() {
	g.mu.Lock()
	g.frozen = true
	g.mu.Unlock()
}

func (g *guest) dispatch(q chan<- guestReq) {
	defer g.wg.Done()
	defer close(q)
	a := g.pending
	if a == nil {
		next := g.gen.Next()
		a = &next
	}
	base := time.Now().Add(-time.Duration(float64(a.At) / g.speedup))
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		due := base.Add(time.Duration(float64(a.At) / g.speedup))
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-g.stop:
				g.pending = a
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-g.stop:
				g.pending = a
				return
			default:
			}
		}
		g.late = append(g.late, float64(time.Since(due))/1e3)
		select {
		case q <- guestReq{a: *a, due: due}:
		case <-g.stop:
			g.pending = a
			return
		}
		next := g.gen.Next()
		a = &next
	}
}

func (g *guest) serve(q <-chan guestReq, submit func(blockdev.Request) error) {
	defer g.wg.Done()
	buf := make([]byte, blockdev.BlockSize)
	for r := range q {
		ok := true
		for i := 0; i < r.a.Count; i++ {
			n := r.a.Block + i
			if n >= len(g.gens) {
				break
			}
			req := blockdev.Request{Op: r.a.Op, Block: n, Domain: g.domain, Data: buf}
			if r.a.Op != blockdev.Write {
				if submit(req) != nil {
					ok = false
				}
				continue
			}
			g.nextGen++
			gen := g.nextGen
			workload.FillBlock(buf, n, gen)
			if submit(req) != nil {
				ok = false
				continue
			}
			g.mu.Lock()
			g.gens[n] = gen
			if g.frozen {
				g.post[n] = true
			}
			g.mu.Unlock()
		}
		g.ops++
		if !ok {
			g.fails++
		}
		g.lat = append(g.lat, float64(time.Since(r.due))/1e3)
	}
}

// dirtier is a paced guest memory writer: it rewrites a working set of hot
// pages round-robin at a fixed page rate until stopped.
type dirtier struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

func startDirtier(mem *vm.Memory, hot int, pagesPerSec float64, salt uint64) *dirtier {
	d := &dirtier{stop: make(chan struct{})}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		page := make([]byte, mem.PageSize())
		fillPattern(page, salt)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		start := time.Now()
		var written, cursor uint64
		for {
			select {
			case <-d.stop:
				return
			case <-tick.C:
			}
			due := uint64(time.Since(start).Seconds() * pagesPerSec)
			for ; written < due; written++ {
				p := int(cursor % uint64(hot))
				cursor++
				binary.LittleEndian.PutUint64(page, salt)
				binary.LittleEndian.PutUint64(page[8:], cursor)
				_ = mem.WritePage(p, page) // p < hot <= NumPages
			}
		}
	}()
	return d
}

func (d *dirtier) halt() {
	close(d.stop)
	d.wg.Wait()
}

// fillPattern fills b with bytes derived from salt.
func fillPattern(b []byte, salt uint64) {
	x := salt*0x9E3779B97F4A7C15 + 1
	for i := 0; i+8 <= len(b); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
}

// fillMemory writes every page of mem once, so the guest's whole memory is
// allocated and non-zero before the first migration.
func fillMemory(mem *vm.Memory, salt uint64) {
	page := make([]byte, mem.PageSize())
	for p := 0; p < mem.NumPages(); p++ {
		fillPattern(page, salt+uint64(p))
		_ = mem.WritePage(p, page)
	}
}
