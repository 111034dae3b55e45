package core

import (
	"bytes"
	"sync"
	"testing"

	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
)

// frameCounter counts the frames sent through it by type.
type frameCounter struct {
	transport.Conn
	mu sync.Mutex
	n  map[transport.MsgType]int
}

func countFrames(c transport.Conn) *frameCounter {
	return &frameCounter{Conn: c, n: make(map[transport.MsgType]int)}
}

func (c *frameCounter) Send(m transport.Message) error {
	c.mu.Lock()
	c.n[m.Type]++
	c.mu.Unlock()
	return c.Conn.Send(m)
}

func (c *frameCounter) count(t transport.MsgType) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[t]
}

// startDirtier runs memDirtier over mem's first hot pages. The returned stop
// function returns only once the dirtier has exited, so no page changes
// after it — call it from OnFreeze and the source memory stays exactly the
// freeze-time image.
func startDirtier(mem *vm.Memory, hot int) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		memDirtier(mem, hot, quit)
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-done
		})
	}
}

// requireSameMemory compares the source memory (frozen since the freeze)
// with the destination's.
func (e *env) requireSameMemory() {
	e.t.Helper()
	if !bytes.Equal(memImage(e.t, e.src.VM.Memory()), memImage(e.t, e.dst.VM.Memory())) {
		e.t.Fatal("destination memory differs from the source's freeze-time memory")
	}
}

// TestMemExtentEquivalence migrates a guest whose memory is dirtied live
// with memory coalescing on, over each transport shape, and requires the
// destination memory to equal the source at the freeze. The dirtier's hot
// set is contiguous, so re-iterations and the freeze ship multi-page runs
// too, not only the first full pass.
func TestMemExtentEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		streams int
		cfg     Config
	}{
		{"pipe", 1, Config{MaxExtentBlocks: 16}},
		{"striped-2", 2, Config{Streams: 2, MaxExtentBlocks: 16, Workers: 2}},
		{"compressed", 1, Config{MaxExtentBlocks: 16, CompressLevel: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			e.useStriped(tc.streams)
			fc := countFrames(e.connSrc)
			e.connSrc = fc
			stop := startDirtier(e.src.VM.Memory(), 64)
			defer stop()
			cfg := tc.cfg
			cfg.OnFreeze = func() {
				stop()
				e.router.Freeze()
			}
			rep, res := e.runTPM(cfg, nil)
			e.checkConverged(res.CPU)
			e.requireSameMemory()
			if got, want := fc.count(transport.MsgMemExtent), testPages/16; got < want {
				t.Fatalf("%d MEM_EXTENT frames, want at least the first pass's %d", got, want)
			}
			if rep.MemIterations[0].Units != testPages {
				t.Fatalf("first memory iteration sent %d pages, want %d", rep.MemIterations[0].Units, testPages)
			}
		})
	}
}

// TestMemExtentBaseline runs the on-demand baseline, whose memory pre-copy
// and freeze share sendPages with TPM, under a live dirtier with coalescing
// on: its receive table must apply MEM_EXTENT frames too.
func TestMemExtentBaseline(t *testing.T) {
	e := newEnv(t)
	fc := countFrames(e.connSrc)
	stop := startDirtier(e.src.VM.Memory(), 64)
	defer stop()
	release := make(chan struct{})
	close(release) // drop the residual dependency as soon as the VM runs
	srcCh := make(chan error, 1)
	go func() {
		_, err := MigrateOnDemandSource(Config{MaxExtentBlocks: 16, OnFreeze: func() {
			stop()
			e.router.Freeze()
		}}, e.src, fc)
		srcCh <- err
	}()
	res, err := MigrateOnDemandDest(Config{MaxExtentBlocks: 16}, e.dst, e.connDst, release)
	if err != nil {
		t.Fatalf("destination: %v", err)
	}
	if err := <-srcCh; err != nil {
		t.Fatalf("source: %v", err)
	}
	e.requireSameMemory()
	if !res.CPU.Equal(e.src.VM.CPU()) {
		t.Fatal("CPU state corrupted in transit")
	}
	if fc.count(transport.MsgMemExtent) == 0 {
		t.Fatal("baseline sent no MEM_EXTENT frames")
	}
}

// TestMemExtentResumeMidMemPreCopy cuts the link halfway through the first
// memory iteration of a coalesced migration with a live dirtier. The
// destination's resume cursor records whole extents, and the resumed
// migration must still end with the source's freeze-time memory.
func TestMemExtentResumeMidMemPreCopy(t *testing.T) {
	e := newEnv(t)
	stop := startDirtier(e.src.VM.Memory(), 64)
	defer stop()
	// HELLO, one disk iteration of 16-block extents (no disk workload, so
	// it converges at once), MEM_ITER_START, then half the page extents.
	cut := int64(1 + (1 + testBlocks/16 + 1) + 1 + testPages/16/2)
	base := Config{MaxExtentBlocks: 16, OnFreeze: func() {
		stop()
		e.router.Freeze()
	}}
	res, _ := e.runResumableCfg(t, base, []transport.Fault{{AfterSends: cut, Kind: transport.FaultCut}})
	e.checkConverged(res.CPU)
	e.requireSameMemory()
}

// TestMemExtentFrameCounts pins the framing: a 2048-page first iteration
// with a 16-page limit is exactly 128 MEM_EXTENT frames, and the default
// config sends none (every page is its own MEM_PAGE, the seed format).
func TestMemExtentFrameCounts(t *testing.T) {
	const pages = 2048
	for _, tc := range []struct {
		cfg                  Config
		wantExtent, wantPage int
	}{
		{Config{MaxExtentBlocks: 16}, pages / 16, 0},
		{Config{}, 0, pages},
	} {
		e := newEnvPages(t, pages)
		fc := countFrames(e.connSrc)
		e.connSrc = fc
		rep, res := e.runTPM(tc.cfg, nil)
		e.checkConverged(res.CPU)
		if len(rep.MemIterations) != 2 || rep.MemIterations[0].Units != pages || rep.MemIterations[1].Units != 0 {
			t.Fatalf("memory iterations %+v, want one full pass and an empty freeze", rep.MemIterations)
		}
		if got := fc.count(transport.MsgMemExtent); got != tc.wantExtent {
			t.Fatalf("MaxExtentBlocks %d: %d MEM_EXTENT frames, want %d", tc.cfg.MaxExtentBlocks, got, tc.wantExtent)
		}
		if got := fc.count(transport.MsgMemPage); got != tc.wantPage {
			t.Fatalf("MaxExtentBlocks %d: %d MEM_PAGE frames, want %d", tc.cfg.MaxExtentBlocks, got, tc.wantPage)
		}
	}
}

// memExtentBlocks is the disk size of memExtentHost.
const memExtentBlocks = 16

// memExtentHost builds a destination-shaped host with a small disk and
// memory.
func memExtentHost(pages int) Host {
	guest := vm.New("guest", testDomain, pages, 0)
	return Host{VM: guest, Backend: blkback.NewBackend(blockdev.NewMemDisk(memExtentBlocks, blockdev.BlockSize), testDomain)}
}

// TestMemExtentRejectsMalformed feeds applyMemExtent frames a hostile or
// broken peer could send. Each must be refused before any page is written.
func TestMemExtentRejectsMalformed(t *testing.T) {
	const pages = 8
	ps := vm.PageSize
	for _, tc := range []struct {
		name         string
		start, count int
		payload      int
	}{
		{"zero-count", 2, 0, 0},
		{"zero-count-with-payload", 2, 0, ps},
		{"past-end", 6, 3, 3 * ps},
		{"start-past-end", pages, 1, ps},
		{"huge-start", 1<<40 - 1, 2, 2 * ps},
		{"short-payload", 0, 4, 4*ps - 1},
		{"long-payload", 0, 4, 5 * ps},
		{"empty-payload", 0, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			host := memExtentHost(pages)
			tr := &transfer{host: host}
			payload := bytes.Repeat([]byte{0xAB}, tc.payload)
			arg := uint64(tc.start) | uint64(tc.count)<<40
			err := tr.applyMemExtent(transport.Message{Type: transport.MsgMemExtent, Arg: arg, Payload: payload})
			if err == nil {
				t.Fatal("malformed MEM_EXTENT accepted")
			}
			if w := host.VM.Memory().Writes(); w != 0 {
				t.Fatalf("%d pages written before the frame was rejected", w)
			}
		})
	}
	// A well-formed frame lands every page and marks the resume cursor.
	host := memExtentHost(pages)
	var noted [2]int
	tr := &transfer{host: host, recvPages: func(lo, hi int) { noted = [2]int{lo, hi} }}
	payload := make([]byte, 3*ps)
	for i := range payload {
		payload[i] = byte(i / ps)
	}
	if err := tr.applyMemExtent(transport.Message{Type: transport.MsgMemExtent, Arg: transport.ExtentArg(5, 3), Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if noted != [2]int{5, 8} {
		t.Fatalf("resume cursor noted %v, want [5 8]", noted)
	}
	buf := make([]byte, ps)
	for k := 0; k < 3; k++ {
		host.VM.Memory().ReadPage(5+k, buf)
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte(k)}, ps)) {
			t.Fatalf("page %d content wrong", 5+k)
		}
	}
}

// FuzzExtentFrames throws arbitrary Args and payload lengths at the disk and
// memory extent checks: each must return an error or an extent inside the
// target whose payload matches exactly — never panic.
func FuzzExtentFrames(f *testing.F) {
	f.Add(transport.ExtentArg(0, 1), 4096, false)
	f.Add(transport.ExtentArg(3, 4), 4*4096, true)
	f.Add(uint64(0), 0, true)
	f.Add(uint64(1<<64-1), 4096, false)
	f.Add(transport.ExtentArg(6, 3), 3*4096, true)
	const pages = 8
	tr := &transfer{host: memExtentHost(pages)}
	f.Fuzz(func(t *testing.T, arg uint64, payloadLen int, mem bool) {
		if payloadLen < 0 || payloadLen > 64*4096 {
			return
		}
		m := transport.Message{Arg: arg, Payload: make([]byte, payloadLen)}
		check, n, unit := tr.checkExtent, memExtentBlocks, blockdev.BlockSize
		if mem {
			check, n, unit = tr.checkMemExtent, pages, vm.PageSize
		}
		ext, err := check(m)
		if err != nil {
			return
		}
		if ext.Count < 1 || ext.Start < 0 || ext.End() > n || len(m.Payload) != ext.Count*unit {
			t.Fatalf("accepted out-of-range extent %v (payload %d) for %d units", ext, payloadLen, n)
		}
	})
}
