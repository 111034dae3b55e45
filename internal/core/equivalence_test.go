package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// parallelConfigs is the equivalence matrix: the seed's sequential
// single-stream per-block transfer against coalesced/striped/pipelined
// variants. Every row must produce byte-identical results.
var parallelConfigs = []struct {
	name            string
	streams         int
	maxExtentBlocks int
	workers         int
}{
	{"serial-1stream-extent1", 1, 1, 1},
	{"coalesced-1stream", 1, 16, 1},
	{"pipelined-1stream", 1, 16, 4},
	{"striped-4stream-coalesced", 4, 64, 4},
}

// useStriped replaces the env's single pipe with an n-wide striped bundle.
func (e *env) useStriped(n int) {
	if n <= 1 {
		return
	}
	a := make([]transport.Conn, n)
	b := make([]transport.Conn, n)
	for i := range a {
		a[i], b[i] = transport.NewPipe(64)
	}
	e.connSrc, e.connDst = transport.NewStriped(a), transport.NewStriped(b)
}

// diskImage flattens a disk into one byte slice for cross-run comparison.
func diskImage(t *testing.T, d blockdev.Device) []byte {
	t.Helper()
	out := make([]byte, d.NumBlocks()*d.BlockSize())
	for n := 0; n < d.NumBlocks(); n++ {
		if err := d.ReadBlock(n, out[n*d.BlockSize():(n+1)*d.BlockSize()]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// memImage flattens guest memory likewise.
func memImage(t *testing.T, m *vm.Memory) []byte {
	t.Helper()
	out := make([]byte, m.NumPages()*m.PageSize())
	for p := 0; p < m.NumPages(); p++ {
		if err := m.ReadPage(p, out[p*m.PageSize():(p+1)*m.PageSize()]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestEquivalenceTPM migrates the same deterministic VM under every
// transfer configuration and requires byte-identical destination disks and
// memories — the wire format may change shape, the data may not.
func TestEquivalenceTPM(t *testing.T) {
	var refDisk, refMem []byte
	for _, pc := range parallelConfigs {
		t.Run(pc.name, func(t *testing.T) {
			e := newEnv(t)
			e.useStriped(pc.streams)
			cfg := Config{Streams: pc.streams, MaxExtentBlocks: pc.maxExtentBlocks, Workers: pc.workers}
			rep, res := e.runTPM(cfg, nil)
			e.checkConverged(res.CPU)
			if rep.DiskIterations[0].Units != testBlocks {
				t.Fatalf("first iteration sent %d blocks, want %d", rep.DiskIterations[0].Units, testBlocks)
			}
			disk := diskImage(t, e.dstDisk)
			mem := memImage(t, e.dst.VM.Memory())
			if refDisk == nil {
				refDisk, refMem = disk, mem
				return
			}
			if !bytes.Equal(disk, refDisk) {
				t.Fatal("destination disk differs from the serial baseline")
			}
			if !bytes.Equal(mem, refMem) {
				t.Fatal("destination memory differs from the serial baseline")
			}
		})
	}
}

// TestEquivalenceTPMUnderWorkload races a verified write workload against
// the migration under each configuration: the shadow-truth check in
// checkConverged asserts the destination ends byte-identical to the source's
// write history, pull path and stale-push dropping included.
func TestEquivalenceTPMUnderWorkload(t *testing.T) {
	for _, pc := range parallelConfigs {
		t.Run(pc.name, func(t *testing.T) {
			e := newEnv(t)
			e.useStriped(pc.streams)
			gen := workload.NewWebServer(testBlocks, 23)
			stopIO := make(chan struct{})
			var replayErr error
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, replayErr = workload.Replay(clockReal(), gen, testDomain, time.Hour, 200, e.submitVerified, stopIO)
			}()
			stopMem := startDirtier(e.src.VM.Memory(), 32)

			cfg := Config{
				Streams:         pc.streams,
				MaxExtentBlocks: pc.maxExtentBlocks,
				Workers:         pc.workers,
				OnFreeze: func() {
					stopMem()
					e.router.Freeze()
				},
				OnResume: e.router.ResumeGate,
			}
			_, res := e.runTPM(cfg, nil)
			close(stopIO)
			wg.Wait()
			if replayErr != nil {
				t.Fatalf("workload: %v", replayErr)
			}
			e.checkConverged(res.CPU)
		})
	}
}

// TestEquivalenceIM runs the incremental scheme under each configuration: a
// primary migration, deterministic divergence on the destination, then an
// IM back seeded from a bitmap of the divergent blocks. The returned source
// disk must equal the destination's final state, identically across
// configurations.
func TestEquivalenceIM(t *testing.T) {
	divergent := []int{0, 1, 2, 3, 64, 65, 66, 500, 501, 777, 1024, 2047}
	var refDisk []byte
	for _, pc := range parallelConfigs {
		t.Run(pc.name, func(t *testing.T) {
			e := newEnv(t)
			e.useStriped(pc.streams)
			cfg := Config{Streams: pc.streams, MaxExtentBlocks: pc.maxExtentBlocks, Workers: pc.workers}
			_, res := e.runTPM(cfg, nil)
			e.checkConverged(res.CPU)

			// Deterministic post-migration divergence on the destination.
			buf := make([]byte, blockdev.BlockSize)
			fresh := bitmap.New(testBlocks)
			for _, n := range divergent {
				workload.FillBlock(buf, n, 99)
				if err := e.dstDisk.WriteBlock(n, buf); err != nil {
					t.Fatal(err)
				}
				fresh.Set(n)
			}

			// Migrate back incrementally: the old source disk is the stale
			// peer copy, only the divergent blocks travel.
			backSrcVM := e.dst.VM
			backDstVM := vm.NewDestination(backSrcVM)
			backSrc := Host{VM: backSrcVM, Backend: blkback.NewBackend(e.dstDisk, testDomain)}
			backDst := Host{VM: backDstVM, Backend: blkback.NewBackend(e.srcDisk, testDomain)}
			backSrc.Backend.SeedDirty(fresh)
			router2 := NewRouter(backSrc.Backend.Submit)
			var c1, c2 transport.Conn
			if pc.streams > 1 {
				a := make([]transport.Conn, pc.streams)
				b := make([]transport.Conn, pc.streams)
				for i := range a {
					a[i], b[i] = transport.NewPipe(64)
				}
				c1, c2 = transport.NewStriped(a), transport.NewStriped(b)
			} else {
				c1, c2 = transport.NewPipe(64)
			}
			backCfg := Config{
				Streams: pc.streams, MaxExtentBlocks: pc.maxExtentBlocks, Workers: pc.workers,
				OnFreeze: router2.Freeze, OnResume: router2.ResumeGate,
			}
			srcCh := make(chan error, 1)
			go func() {
				rep, err := MigrateSource(backCfg, backSrc, c1, backSrc.Backend.SwapDirty())
				if err == nil && rep.Scheme != "IM" {
					t.Errorf("scheme %q, want IM", rep.Scheme)
				}
				srcCh <- err
			}()
			if _, err := MigrateDest(backCfg, backDst, c2); err != nil {
				t.Fatalf("IM destination: %v", err)
			}
			if err := <-srcCh; err != nil {
				t.Fatalf("IM source: %v", err)
			}

			diffs, err := blockdev.Diff(e.srcDisk, e.dstDisk)
			if err != nil {
				t.Fatal(err)
			}
			if len(diffs) != 0 {
				t.Fatalf("after IM back, disks differ at %d blocks (first %v)", len(diffs), diffs[0])
			}
			disk := diskImage(t, e.srcDisk)
			if refDisk == nil {
				refDisk = disk
				return
			}
			if !bytes.Equal(disk, refDisk) {
				t.Fatal("IM result differs from the serial baseline")
			}
		})
	}
}

// TestScatterPool exercises the pool directly: ordering across drains,
// inline mode, and error stickiness.
func TestScatterPool(t *testing.T) {
	p := newScatterPool(4)
	defer p.close()
	var mu sync.Mutex
	applied := 0
	for i := 0; i < 100; i++ {
		if err := p.do(func() error {
			mu.Lock()
			applied++
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.drain(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if applied != 100 {
		t.Fatalf("drain returned before %d/100 applies", applied)
	}
	mu.Unlock()

	inline := newScatterPool(1)
	ran := false
	if err := inline.do(func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatal("inline pool did not run the apply synchronously")
	}
	inline.close()
}

// TestOversizedMaxExtentClamped is a regression test: a MaxExtentBlocks far
// beyond the device (or the frame payload limit) must be clamped, not used
// to size staging buffers — the unclamped value once requested a 64 GiB
// allocation in the post-copy pusher.
func TestOversizedMaxExtentClamped(t *testing.T) {
	e := newEnv(t)
	cfg := Config{MaxExtentBlocks: transport.MaxExtentBlocks, Workers: 2}
	_, res := e.runTPM(cfg, nil)
	e.checkConverged(res.CPU)
}
