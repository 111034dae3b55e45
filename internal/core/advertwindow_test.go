package core

import (
	"bytes"
	"strings"
	"testing"

	"bbmig/internal/blockdev"
	"bbmig/internal/dedup"
	"bbmig/internal/transport"
)

// withholdWindowConn wraps a destination's conn and clears
// transport.HelloAckAdvertWindow from the HELLO_ACK it sends, so the source
// sees the wire of a destination that never offered the window — the seed
// exchange with one advert outstanding.
type withholdWindowConn struct{ transport.Conn }

func (c withholdWindowConn) Send(m transport.Message) error {
	if m.Type == transport.MsgHelloAck {
		m.Arg &^= transport.HelloAckAdvertWindow
	}
	return c.Conn.Send(m)
}

// advertRun returns the longest run of consecutive HASH_ADVERT frames in a
// source's send trace: how many adverts it sent before finishing any
// extent. The seed exchange never sends two in a row.
func advertRun(trace []string) int {
	run, longest := 0, 0
	for _, f := range trace {
		if strings.HasPrefix(f, "HASH_ADVERT ") {
			run++
			longest = max(longest, run)
		} else {
			run = 0
		}
	}
	return longest
}

// exampleTemplateDisk rewrites the env's source disk (and shadow) into
// Example_dedup's shape: the first half cycles eight template payloads
// whose only difference is the first byte, the second half is zeros.
func exampleTemplateDisk(t *testing.T, e *env) {
	t.Helper()
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < testBlocks; n++ {
		clear(buf)
		if n < testBlocks/2 {
			buf[0] = byte(n%8) + 1
		}
		if err := e.srcDisk.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if err := e.shadow.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// windowRun is what one dedup migration left behind.
type windowRun struct {
	disk             []byte
	srcRefs, dstRefs int
	advertRun        int
}

// runWindowCase migrates a fresh template world under cfg. withhold makes
// the destination hide its window offer from the source.
func runWindowCase(t *testing.T, cfg Config, withhold bool) windowRun {
	t.Helper()
	e := newEnv(t)
	exampleTemplateDisk(t, e)
	e.useStriped(cfg.Streams)
	srcTrace := &traceConn{inner: e.connSrc}
	e.connSrc = srcTrace
	if withhold {
		e.connDst = withholdWindowConn{e.connDst}
	}
	rep, res := e.runTPM(cfg, nil)
	e.checkConverged(res.CPU)
	return windowRun{
		disk:    diskImage(t, e.dstDisk),
		srcRefs: rep.DedupBlocks, dstRefs: res.Report.DedupBlocks,
		advertRun: advertRun(srcTrace.trace()),
	}
}

// TestAdvertWindowEquivalence migrates the same worlds through a destination
// that withholds the advert-window offer (today's wire) and one that makes
// it: the destination disks and the reference counts must be equal, and the
// window must actually open exactly when Delta is off. (The Dedup+Delta
// frame sequence itself is pinned by TestWireTraceGoldenDedupDelta.)
func TestAdvertWindowEquivalence(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"template", Config{Dedup: true, MaxExtentBlocks: 64}},
		{"compressed", Config{Dedup: true, MaxExtentBlocks: 64, CompressLevel: 1}},
		{"striped2", Config{Dedup: true, MaxExtentBlocks: 16, Streams: 2}},
		{"workers4", Config{Dedup: true, MaxExtentBlocks: 16, Workers: 4}},
		{"dedup+delta", Config{Dedup: true, Delta: true, MaxExtentBlocks: 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := runWindowCase(t, tc.cfg, true)
			windowed := runWindowCase(t, tc.cfg, false)
			if !bytes.Equal(serial.disk, windowed.disk) {
				t.Fatal("destination disks differ between the serial and windowed exchange")
			}
			if serial.srcRefs != serial.dstRefs || windowed.srcRefs != windowed.dstRefs {
				t.Fatalf("reference accounting: serial %d/%d, windowed %d/%d",
					serial.srcRefs, serial.dstRefs, windowed.srcRefs, windowed.dstRefs)
			}
			if serial.srcRefs != windowed.srcRefs {
				t.Fatalf("windowed exchange moved %d blocks by reference, serial %d", windowed.srcRefs, serial.srcRefs)
			}
			if serial.advertRun != 1 {
				t.Fatalf("withheld offer: %d adverts sent in a row, want 1", serial.advertRun)
			}
			wantRun := advertWindow
			if tc.cfg.Delta {
				wantRun = 1
			}
			if windowed.advertRun != wantRun {
				t.Fatalf("%d adverts sent in a row, want %d", windowed.advertRun, wantRun)
			}
		})
	}
}

// TestAdvertWindowExampleRefs pins Example_dedup's reference count on the
// windowed exchange: without promises, adverts answered before the first
// extent's literals land would miss the template and fall to 1792.
func TestAdvertWindowExampleRefs(t *testing.T) {
	run := runWindowCase(t, Config{Dedup: true, MaxExtentBlocks: 64}, false)
	if run.srcRefs != testBlocks-64 {
		t.Fatalf("%d blocks by reference, want %d (only the first extent literal)", run.srcRefs, testBlocks-64)
	}
}

// dedupTraceEnv is newTraceEnv with Example_dedup's template disk: repeated
// content for references, a zero half for elision.
func dedupTraceEnv(t *testing.T) *traceEnv {
	t.Helper()
	e := newTraceEnv(t)
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < testBlocks; n++ {
		clear(buf)
		if n < testBlocks/2 {
			buf[0] = byte(n%8) + 1
		}
		if err := e.srcDisk.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestWireTraceGoldenDedupWithheld pins the seed dedup exchange: when the
// destination withholds the window offer, both directions carry exactly the
// frames the one-advert-at-a-time protocol always sent.
func TestWireTraceGoldenDedupWithheld(t *testing.T) {
	e := dedupTraceEnv(t)
	withheld := withholdWindowConn{e.connDst}
	srcCh := make(chan error, 1)
	cfg := Config{Dedup: true, MaxExtentBlocks: 16}
	go func() {
		_, err := MigrateSource(cfg, e.src, e.connSrc, nil)
		srcCh <- err
	}()
	if _, err := MigrateDest(cfg, e.dst, withheld); err != nil {
		t.Fatalf("destination: %v", err)
	}
	if err := <-srcCh; err != nil {
		t.Fatalf("source: %v", err)
	}
	checkGolden(t, "wiretrace_dedup.golden", renderTrace(e.connSrc.trace(), e.connDst.trace()))
}

// TestWireTraceGoldenDedupDelta pins Dedup+Delta, where the destination
// never offers the window: the frame sequence is the seed exchange.
func TestWireTraceGoldenDedupDelta(t *testing.T) {
	e := dedupTraceEnv(t)
	src, dst := runTraced(t, e, Config{Dedup: true, Delta: true, MaxExtentBlocks: 16}, nil)
	checkGolden(t, "wiretrace_dedupdelta.golden", renderTrace(src, dst))
}

// TestAdvertWindowResumeMidWindow cuts the link while adverts are
// outstanding — on the source's send path mid-window, among the extents'
// finishes, and on its receive path between two want replies — and
// requires the resumed migration to converge block for block.
func TestAdvertWindowResumeMidWindow(t *testing.T) {
	cases := []struct {
		name  string
		fault transport.Fault
	}{
		// HELLO, ITER_START, two adverts: the cut takes the third advert
		// while two are outstanding.
		{"send-third-advert", transport.Fault{AfterSends: 4, Kind: transport.FaultCut}},
		// Deep enough that finished extents' literals and references are
		// interleaved with fresh adverts.
		{"send-among-finishes", transport.Fault{AfterSends: 40, Kind: transport.FaultCut}},
		// HELLO_ACK and two want replies: the reader dies awaiting the
		// third, with the window's other adverts still unanswered.
		{"recv-third-want", transport.Fault{AfterRecvs: 3, Kind: transport.FaultCut}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			exampleTemplateDisk(t, e)
			first := &traceConn{inner: e.connSrc} // the epoch the cut kills
			e.connSrc = first
			res, _ := e.runResumableCfg(t, Config{Dedup: true, MaxExtentBlocks: 16}, []transport.Fault{tc.fault})
			e.checkConverged(res.CPU)
			if n := advertRun(first.trace()); n < 2 {
				t.Fatalf("at most %d adverts in a row before the cut: the window never opened", n)
			}
			buf := make([]byte, blockdev.BlockSize)
			for n := 0; n < testBlocks; n++ {
				if err := e.srcDisk.ReadBlock(n, buf); err != nil {
					t.Fatal(err)
				}
				want := dedup.Of(buf)
				if err := e.dstDisk.ReadBlock(n, buf); err != nil {
					t.Fatal(err)
				}
				if got := dedup.Of(buf); got != want {
					t.Fatalf("block %d: destination fingerprint %x, source %x", n, got, want)
				}
			}
		})
	}
}
