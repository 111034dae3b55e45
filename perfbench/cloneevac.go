package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"

	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
	"bbmig/internal/core"
	"bbmig/internal/hostd"
	"bbmig/internal/workload"
)

// clone-evac: hostd evacuates a live template clone (MigrateOut to
// ServeOne) to a host where a sibling clone of the same template is
// resident. Of the 64 MiB disk, half is template content the sibling also
// holds, a quarter is zero, and the last quarter is the clone's own: half
// of it compressible, half not. Compression (level 1) and dedup are
// negotiated in the announce, so fingerprinting, the destination's index
// scan and lookups, advert/want round trips, flate and hostd's
// announce/vault path do most of the work and few socket bytes move. Each
// operation evacuates a fresh copy of the clone to a fresh destination, so
// every one pays the sibling scan. The clone runs hostd's built-in
// streaming-server load: the web server's write bursts at hostd's 200x
// schedule made the pre-copy take three or four iterations at random,
// which split operation times into two clusters.
const (
	cloneBlocks      = 16384 // 64 MiB
	cloneTemplateEnd = cloneBlocks / 2
	cloneZeroEnd     = cloneBlocks * 3 / 4
	cloneCompressEnd = cloneBlocks * 7 / 8 // compressible unique content up to here, random after
	clonePages       = 2048
	cloneSrcHost     = "src"
	cloneDstHost     = "dst"
	cloneSiblingName = "sibling"
)

type cloneEvac struct {
	image, sibling *blockdev.MemDisk
	ln             net.Listener
	seed           int64
	n              int
}

func setupCloneEvac(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	image := blockdev.NewMemDisk(cloneBlocks, blockdev.BlockSize)
	sibling := blockdev.NewMemDisk(cloneBlocks, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < cloneBlocks; n++ {
		switch {
		case n < cloneTemplateEnd:
			rng.Read(buf)
			if err := sibling.WriteBlock(n, buf); err != nil {
				return nil, err
			}
		case n < cloneZeroEnd:
			continue
		case n < cloneCompressEnd:
			workload.FillBlock(buf, n, uint32(seed))
		default:
			rng.Read(buf)
		}
		if err := image.WriteBlock(n, buf); err != nil {
			return nil, err
		}
	}
	for n := cloneTemplateEnd; n < cloneBlocks; n++ {
		rng.Read(buf) // the sibling's own content
		if err := sibling.WriteBlock(n, buf); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &cloneEvac{image: image, sibling: sibling, ln: ln, seed: seed}, nil
}

func (c *cloneEvac) op(tr *tracer) (*opResult, error) {
	c.n++
	r := &opResult{}
	src, dst := hostd.NewMachine(cloneSrcHost), hostd.NewMachine(cloneDstHost)
	if _, err := dst.CreateDomainOn(cloneSiblingName, c.sibling, clonePages, workload.Web, c.seed, false); err != nil {
		return r, err
	}
	disk := blockdev.NewMemDisk(cloneBlocks, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < cloneBlocks; n++ {
		if n >= cloneTemplateEnd && n < cloneZeroEnd {
			continue // zero on a fresh disk
		}
		if err := c.image.ReadBlock(n, buf); err != nil {
			return r, err
		}
		if err := disk.WriteBlock(n, buf); err != nil {
			return r, err
		}
	}
	cache := bcache.New(disk, 0)
	var vol blockdev.Volume = cache
	cfgS := core.Config{MaxExtentBlocks: 64, CompressLevel: 1, Dedup: true}
	var cfgD core.Config
	ln := c.ln
	if tr != nil {
		vol = newTracedVolume(cache, tr, false)
		cfgS.Policy = &tracedPolicy{t: tr}
		cfgS.OnEvent, cfgD.OnEvent = tr.onEvent, tr.onEvent
		ln = &tracedListener{Listener: c.ln, t: tr, hostd: true}
	}
	name := fmt.Sprintf("clone-%d", c.n)
	dom, err := src.CreateDomainOn(name, vol, clonePages, workload.Stream, c.seed+int64(c.n), true)
	if err != nil {
		return r, err
	}

	type destOut struct {
		res *core.DestResult
		err error
	}
	destCh := make(chan destOut, 1)
	r.begin()
	go func() {
		res, err := dst.ServeOne(ln, cfgD)
		destCh <- destOut{res, err}
	}()
	rep, srcErr := src.MigrateOut(name, cloneDstHost, c.ln.Addr().String(), cfgS)
	if srcErr != nil {
		c.ln.Close() // ServeOne may still wait for the connection; the run ends here
	}
	out := <-destCh
	r.end()
	if srcErr != nil {
		dom.StopWorkload()
		return r, fmt.Errorf("source: %w", srcErr)
	}
	if out.err != nil {
		return r, fmt.Errorf("destination: %w", out.err)
	}
	arrived, ok := dst.Domain(name)
	if !ok {
		return r, fmt.Errorf("domain %s did not arrive", name)
	}
	// The arrived guest's workload started with it; stop it before checking
	// (and before the next operation adds load).
	arrived.StopWorkload()
	r.src, r.dst = rep, out.res.Report
	r.cache = cache.Stats()
	if dc, ok := arrived.Disk().(*bcache.Cache); ok {
		r.cache = addStats(r.cache, dc.Stats())
	}
	r.mismatch = checkMemory(arrived.VM().Memory(), dom.VM().Memory())
	if r.mismatch == "" {
		r.mismatch = checkArrived(arrived, dom.Disk())
	}
	return r, nil
}

// checkArrived compares the arrived disk with the source's disk, which the
// source retained frozen at the freeze; blocks the arrived guest has since
// written (its vault's divergence from the source) are skipped.
func checkArrived(arrived *hostd.Domain, srcDisk blockdev.Device) string {
	written := arrived.Vault().InitialFor(cloneSrcHost)
	a := make([]byte, blockdev.BlockSize)
	b := make([]byte, blockdev.BlockSize)
	dstDisk := arrived.Disk()
	for n := 0; n < dstDisk.NumBlocks(); n++ {
		if written.Test(n) {
			continue
		}
		if err := srcDisk.ReadBlock(n, a); err != nil {
			return err.Error()
		}
		if err := dstDisk.ReadBlock(n, b); err != nil {
			return err.Error()
		}
		if !bytes.Equal(a, b) {
			return fmt.Sprintf("destination block %d differs from the source at freeze", n)
		}
	}
	return ""
}

func (c *cloneEvac) close() { c.ln.Close() }
