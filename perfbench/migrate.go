package main

import (
	"bytes"
	"fmt"
	"sync"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
	"bbmig/internal/core"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// liveGuest is a guest VM running on one of two volumes: the open-loop
// disk driver plus the paced memory dirtier. live-lan and im-return-wan
// migrate it with the engine directly.
type liveGuest struct {
	vm       *vm.VM
	g        *guest
	hotPages int     // memory working set the dirtier rewrites
	pageRate float64 // pages per second it rewrites
}

// engineRun describes one engine migration of a liveGuest.
type engineRun struct {
	cfg      core.Config // shared by both ends; the run adds its hooks
	src, dst *bcache.Cache
	initial  *bitmap.Bitmap // nil: full TPM; otherwise IM of these blocks
	// connect opens the link and returns its source and destination ends.
	connect func(tr *tracer) (cs, cd transport.Conn, err error)
	// backing, when set, flushes both caches and returns the devices behind
	// them, which the check then reads directly instead of through the
	// caches.
	backing func() (src, dst blockdev.Device, err error)
}

// migrate runs one live migration of lg from run.src to run.dst, timing it
// from the call until both ends return, then checks the destination against
// the source's frozen state and the guest's post-freeze writes.
func (lg *liveGuest) migrate(run engineRun, tr *tracer, salt uint64) (*opResult, error) {
	r := &opResult{}
	var srcVol, dstVol blockdev.Volume = run.src, run.dst
	cfgS, cfgD := run.cfg, run.cfg
	if tr != nil {
		srcVol = newTracedVolume(run.src, tr, false)
		dstVol = newTracedVolume(run.dst, tr, true)
		cfgS.Policy = &tracedPolicy{t: tr}
		cfgS.OnEvent, cfgD.OnEvent = tr.onEvent, tr.onEvent
	}
	id := lg.vm.DomainID
	srcBk, dstBk := blkback.NewBackend(srcVol, id), blkback.NewBackend(dstVol, id)
	shell := vm.NewDestination(lg.vm)
	router := core.NewRouter(srcBk.Submit)

	cs, cd, err := run.connect(tr)
	if err != nil {
		return r, err
	}
	defer cs.Close()
	defer cd.Close()

	if run.initial != nil {
		// An incremental migration sends the blocks that diverged before it
		// started; the block-bitmap must already be tracking when the guest
		// resumes writing, or a write landing before the engine starts
		// tracking would be in neither set.
		srcBk.StartTracking()
	}
	stats0 := addStats(run.src.Stats(), run.dst.Stats())
	r.begin()
	lg.g.startWindow(router.Submit)
	d := startDirtier(lg.vm.Memory(), lg.hotPages, lg.pageRate, salt)
	var haltOnce sync.Once
	halt := func() { haltOnce.Do(d.halt) }
	defer halt()
	cfgS.OnFreeze = func() {
		halt()
		router.Freeze()
		lg.g.markFrozen()
	}
	cfgD.OnResume = router.ResumeGate

	type destOut struct {
		res *core.DestResult
		err error
	}
	destCh := make(chan destOut, 1)
	go func() {
		res, err := core.MigrateDest(cfgD, core.Host{VM: shell, Backend: dstBk}, cd)
		if err != nil {
			cd.Close() // unblock the source
		}
		destCh <- destOut{res, err}
	}()
	rep, srcErr := core.MigrateSource(cfgS, core.Host{VM: lg.vm, Backend: srcBk}, cs, run.initial)
	if srcErr != nil {
		cs.Close() // unblock the destination
	}
	out := <-destCh
	r.end()
	if srcErr != nil || out.err != nil {
		router.ResumeAt(srcBk.Submit) // a guest request parked by the freeze must finish
	}
	lg.g.stopWindow()
	r.cache = subStats(addStats(run.src.Stats(), run.dst.Stats()), stats0)
	r.guestLat, r.guestLate = lg.g.lat, lg.g.late
	r.guestOps, r.guestFails = lg.g.ops, lg.g.fails
	if srcErr != nil {
		return r, fmt.Errorf("source: %w", srcErr)
	}
	if out.err != nil {
		return r, fmt.Errorf("destination: %w", out.err)
	}
	r.src, r.dst = rep, out.res.Report

	r.mismatch = checkMemory(shell.Memory(), lg.vm.Memory())
	if r.mismatch == "" {
		var src, dst blockdev.Device = run.src, run.dst
		if run.backing != nil {
			if src, dst, err = run.backing(); err != nil {
				return r, err
			}
		}
		r.mismatch = lg.checkDisk(src, dst)
	}
	lg.vm = shell
	return r, nil
}

// checkDisk compares every block of dst with what it must hold: the
// latest guest write for blocks written after the freeze, the source's
// frozen content for the rest. Blocks the guest wrote before the freeze
// must also hold that write on the source.
func (lg *liveGuest) checkDisk(src, dst blockdev.Device) string {
	a := make([]byte, blockdev.BlockSize)
	b := make([]byte, blockdev.BlockSize)
	want := make([]byte, blockdev.BlockSize)
	g := lg.g
	for n := 0; n < dst.NumBlocks(); n++ {
		if err := dst.ReadBlock(n, b); err != nil {
			return err.Error()
		}
		if g.post[n] {
			workload.FillBlock(want, n, g.gens[n])
			if !bytes.Equal(b, want) {
				return fmt.Sprintf("destination block %d lacks the guest's post-freeze write", n)
			}
			continue
		}
		if err := src.ReadBlock(n, a); err != nil {
			return err.Error()
		}
		if !bytes.Equal(a, b) {
			return fmt.Sprintf("destination block %d differs from the source at freeze", n)
		}
		if g.gens[n] != 0 {
			workload.FillBlock(want, n, g.gens[n])
			if !bytes.Equal(a, want) {
				return fmt.Sprintf("source block %d lacks the guest's last write", n)
			}
		}
	}
	return ""
}

// checkMemory compares the destination's memory with the source's, which
// the dirtier stopped writing at the freeze.
func checkMemory(dst, src *vm.Memory) string {
	a := make([]byte, src.PageSize())
	b := make([]byte, dst.PageSize())
	for p := 0; p < src.NumPages(); p++ {
		if err := src.ReadPage(p, a); err != nil {
			return err.Error()
		}
		if err := dst.ReadPage(p, b); err != nil {
			return err.Error()
		}
		if !bytes.Equal(a, b) {
			return fmt.Sprintf("memory page %d differs from the source at freeze", p)
		}
	}
	return ""
}

func addStats(a, b bcache.Stats) bcache.Stats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Evictions += b.Evictions
	a.Writebacks += b.Writebacks
	a.CowCopies += b.CowCopies
	return a
}

func subStats(a, b bcache.Stats) bcache.Stats {
	a.Hits -= b.Hits
	a.Misses -= b.Misses
	a.Evictions -= b.Evictions
	a.Writebacks -= b.Writebacks
	a.CowCopies -= b.CowCopies
	return a
}
