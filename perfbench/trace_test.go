package main

import (
	"net"
	"reflect"
	"sync"
	"testing"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
	"bbmig/internal/core"
	"bbmig/internal/hostd"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// frameKey is what must not change when tracing is on: each frame's type,
// argument and payload length, in order.
type frameKey struct {
	typ transport.MsgType
	arg uint64
	n   int
}

type frameLog struct {
	mu     sync.Mutex
	frames []frameKey
}

func (l *frameLog) add(typ transport.MsgType, arg uint64, n int) {
	l.mu.Lock()
	l.frames = append(l.frames, frameKey{typ, arg, n})
	l.mu.Unlock()
}

// recordingConn logs the frames the source sends.
type recordingConn struct {
	transport.Conn
	log *frameLog
}

func (c *recordingConn) Send(m transport.Message) error {
	c.log.add(m.Type, m.Arg, len(m.Payload))
	return c.Conn.Send(m)
}

// reportCounts is the part of a Report a quiescent migration must
// reproduce exactly.
func reportCounts(r *metrics.Report) []int64 {
	c := []int64{r.MigratedBytes, r.MemBytesMoved, int64(r.DedupBlocks), int64(r.DeltaBlocks),
		int64(r.BlocksPushed), int64(r.BlocksPulled), int64(r.StalePushes)}
	for _, it := range append(append([]metrics.Iteration(nil), r.DiskIterations...), r.MemIterations...) {
		c = append(c, int64(it.Units), it.Bytes, int64(it.DirtyEnd))
	}
	return c
}

const testBlocks = 2048

func testImage(gen uint32) *blockdev.MemDisk {
	d := blockdev.NewMemDisk(testBlocks, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < testBlocks; n += 1 + n%3 {
		workload.FillBlock(buf, n, gen)
		_ = d.WriteBlock(n, buf)
	}
	return d
}

// engineMigration runs one quiescent engine migration over an in-process
// pipe and returns the source's frames and both reports.
func engineMigration(t *testing.T, cfg core.Config, initial *bitmap.Bitmap, staleDest bool, traced bool) ([]frameKey, []int64, []int64) {
	t.Helper()
	src := bcache.New(testImage(3), testBlocks/4)
	dstDisk := blockdev.NewMemDisk(testBlocks, blockdev.BlockSize)
	if staleDest {
		dstDisk = testImage(2)
	}
	dst := bcache.New(dstDisk, testBlocks)
	guest := vm.New("g", 1, 256, 64)
	fillMemory(guest.Memory(), 5)

	log := &frameLog{}
	pa, pb := transport.NewPipe(64)
	var cs transport.Conn = &recordingConn{Conn: pa, log: log}
	var srcVol, dstVol blockdev.Volume = src, dst
	cfgS, cfgD := cfg, cfg
	var tr *tracer
	if traced {
		tr = (&spanLog{}).beginOp()
		cs = newTracedConn(cs, tr)
		srcVol, dstVol = newTracedVolume(src, tr, false), newTracedVolume(dst, tr, true)
		cfgS.Policy = &tracedPolicy{t: tr}
		cfgS.OnEvent, cfgD.OnEvent = tr.onEvent, tr.onEvent
	}
	errCh := make(chan error, 1)
	var dres *core.DestResult
	go func() {
		var err error
		dres, err = core.MigrateDest(cfgD, core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstVol, 1)}, pb)
		errCh <- err
	}()
	rep, err := core.MigrateSource(cfgS, core.Host{VM: guest, Backend: blkback.NewBackend(srcVol, 1)}, cs, initial)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if traced {
		tr.endOp()
		if tr.sends.Load() == 0 || tr.phaseNs[1].Load() == 0 {
			t.Fatalf("traced run recorded nothing: %d sends", tr.sends.Load())
		}
	}
	return log.frames, reportCounts(rep), reportCounts(dres.Report)
}

func TestTracingIsTransparentEngine(t *testing.T) {
	hot := bitmap.New(testBlocks)
	hot.SetRange(100, 400)
	cases := []struct {
		name    string
		cfg     core.Config
		initial *bitmap.Bitmap
		stale   bool
	}{
		{"live-lan-shape", core.Config{MaxExtentBlocks: 64, Readahead: 4}, nil, false},
		{"im-delta-shape", core.Config{MaxExtentBlocks: 16, Delta: true}, hot, true},
		{"dedup-compressed", core.Config{MaxExtentBlocks: 64, CompressLevel: 1, Dedup: true}, nil, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var init1, init2 *bitmap.Bitmap
			if c.initial != nil {
				init1, init2 = c.initial.Clone(), c.initial.Clone()
			}
			f0, s0, d0 := engineMigration(t, c.cfg, init1, c.stale, false)
			f1, s1, d1 := engineMigration(t, c.cfg, init2, c.stale, true)
			if !reflect.DeepEqual(f0, f1) {
				t.Fatalf("frame sequence changed under tracing: %d vs %d frames", len(f0), len(f1))
			}
			if !reflect.DeepEqual(s0, s1) || !reflect.DeepEqual(d0, d1) {
				t.Fatalf("report counts changed under tracing:\nsource %v\n       %v\ndest   %v\n       %v", s0, s1, d0, d1)
			}
		})
	}
}

// recordingListener logs the frames arriving on accepted connections.
type recordingListener struct {
	net.Listener
	log *frameLog
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	return &recordingSock{Conn: c, f: &frameScanner{onFrame: l.log.add}}, nil
}

type recordingSock struct {
	net.Conn
	f *frameScanner
}

func (s *recordingSock) Read(p []byte) (int, error) {
	n, err := s.Conn.Read(p)
	s.f.feed(p[:n])
	return n, err
}

// hostdMigration evacuates a quiescent clone through hostd and returns the
// frames the destination socket received and both reports.
func hostdMigration(t *testing.T, traced bool) ([]frameKey, []int64, []int64) {
	t.Helper()
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	log := &frameLog{}
	var ln net.Listener = &recordingListener{Listener: tcp, log: log}
	src, dst := hostd.NewMachine("src"), hostd.NewMachine("dst")
	if _, err := dst.CreateDomainOn("sibling", testImage(3), 64, workload.Web, 1, false); err != nil {
		t.Fatal(err)
	}
	var vol blockdev.Volume = bcache.New(testImage(3), 0)
	cfgS := core.Config{MaxExtentBlocks: 64, CompressLevel: 1, Dedup: true}
	var cfgD core.Config
	var tr *tracer
	if traced {
		tr = (&spanLog{}).beginOp()
		vol = newTracedVolume(vol, tr, false)
		cfgS.Policy = &tracedPolicy{t: tr}
		cfgS.OnEvent, cfgD.OnEvent = tr.onEvent, tr.onEvent
		ln = &tracedListener{Listener: ln, t: tr, hostd: true}
	}
	if _, err := src.CreateDomainOn("clone", vol, 64, workload.Web, 1, false); err != nil {
		t.Fatal(err)
	}
	type out struct {
		res *core.DestResult
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := dst.ServeOne(ln, cfgD)
		ch <- out{res, err}
	}()
	rep, err := src.MigrateOut("clone", "dst", tcp.Addr().String(), cfgS)
	if err != nil {
		t.Fatal(err)
	}
	o := <-ch
	if o.err != nil {
		t.Fatal(o.err)
	}
	if traced {
		tr.endOp()
		if tr.handshakeNs.Load() == 0 || tr.frames[transport.MsgHashAdvert].Load() == 0 {
			t.Fatal("traced hostd run recorded no handshake or adverts")
		}
	}
	return log.frames, reportCounts(rep), reportCounts(o.res.Report)
}

func TestTracingIsTransparentHostd(t *testing.T) {
	f0, s0, d0 := hostdMigration(t, false)
	f1, s1, d1 := hostdMigration(t, true)
	if !reflect.DeepEqual(f0, f1) {
		t.Fatalf("frame sequence changed under tracing: %d vs %d frames", len(f0), len(f1))
	}
	if !reflect.DeepEqual(s0, s1) || !reflect.DeepEqual(d0, d1) {
		t.Fatalf("report counts changed under tracing:\nsource %v\n       %v\ndest   %v\n       %v", s0, s1, d0, d1)
	}
}
