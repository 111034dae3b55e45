package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/transport"
)

// The traced run measures every layer from outside: the wrappers below sit
// on the interfaces the engine already accepts (transport.Conn,
// blockdev.Volume and Snapshot, core.Policy, net.Listener) plus the
// Config.OnEvent phase stream, and forward every call unchanged. No code
// outside this package knows it is being traced.

// layer identifies where a span was recorded.
type layer uint8

const (
	layerOp        layer = iota // root: one operation, from the call until both ends return
	layerPhase                  // one source-side pipeline phase (detail indexes phaseNames)
	layerSend                   // transport.Conn.Send on the source connection
	layerRecvWait               // the source waiting for the reply to a request frame
	layerSockRead               // net.Conn.Read on the destination socket
	layerSockWrite              // net.Conn.Write on the destination socket
	layerSnapRead               // blockdev.Snapshot.ReadBlock on the source volume
	layerDestWrite              // WriteBlock on the destination volume
	layerHandshake              // hostd: accepted connection until the engine handshake starts
	layerSim                    // one simulator call (detail indexes simNames)
	numLayers
)

var layerNames = [...]string{
	"op", "core.phase", "transport.send", "transport.recv_wait", "transport.sock_read",
	"transport.sock_write", "blockdev.snap_read", "blockdev.dest_write", "hostd.handshake", "sim",
}

// phaseNames are the TPM/IM pipeline phases reported as core.phase.<name>_ms.
var phaseNames = [...]string{
	core.PhaseHandshake, core.PhaseDiskPreCopy, core.PhaseMemPreCopy, core.PhaseFreezeCopy, core.PhasePostCopy,
}

var simNames = [...]string{"fleet_sweep", "table1"}

// selfExcluded marks the child layers whose time is not core's own: a span
// of one of these covers work done by (or waiting on) another layer.
// Destination socket reads are left out of the set because a Read mostly
// blocks until the peer's next frame arrives, which is the sender's time.
var selfExcluded = [numLayers]bool{
	layerSend: true, layerRecvWait: true, layerSockWrite: true,
	layerSnapRead: true, layerDestWrite: true, layerHandshake: true,
}

// span is one timed call at a layer boundary, in nanoseconds since the
// process epoch. Operation and phase spans carry an id; parent is the id of
// the span that caused this one.
type span struct {
	start, end int64
	id, parent int32
	layer      layer
	detail     uint8
}

var (
	epoch   = time.Now()
	spanIDs atomic.Int32
)

func nowNs() int64 { return int64(time.Since(epoch)) }

// coalesceGap merges back-to-back calls: a leaf span starting less than
// this long after the previous one in the same buffer ended extends it.
// Per-block reads and writes of one extent thus become one span, while the
// per-layer time counters still add up every call.
const coalesceGap = 2000

// spanBuf collects the spans of one wrapper, and the time its calls took
// per layer, so wrappers running on different goroutines share no lock or
// counter.
type spanBuf struct {
	mu sync.Mutex
	s  []span
	ns [numLayers]int64
}

func (b *spanBuf) add(sp span) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ns[sp.layer] += sp.end - sp.start
	if n := len(b.s); n > 0 {
		last := &b.s[n-1]
		if last.layer == sp.layer && last.detail == sp.detail && last.parent == sp.parent &&
			sp.start >= last.end && sp.start-last.end < coalesceGap {
			last.end = max(last.end, sp.end)
			return
		}
	}
	b.s = append(b.s, sp)
}

// spanLog keeps every span of the run in memory; writeSpans dumps it once
// the run has finished.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// tracer records one traced operation: its spans join the shared log when
// the operation ends, its counters are the operation's own.
type tracer struct {
	log    *spanLog
	rootID int32
	phase  atomic.Int32 // id of the open source phase span, or of the root

	mu        sync.Mutex
	bufs      []*spanBuf
	own       []span               // the root span and the phase spans
	phaseOpen [len(phaseNames)]int // index in own of each phase's open span, -1 when closed
	misc      *spanBuf

	sends, sendBytes                   atomic.Int64
	frames                             [256]atomic.Int64
	sigRTTs, sigWaitNs                 atomic.Int64
	extents, extentNs                  atomic.Int64
	compRaw, compWire, compN, compRawN atomic.Int64
	handshakeNs, acceptedAt            atomic.Int64
	phaseNs                            [len(phaseNames)]atomic.Int64
	simNs                              [len(simNames)]atomic.Int64

	spans   []span           // every span of the operation, once endOp has run
	layerNs [numLayers]int64 // time spent in calls per layer, once endOp has run
}

// beginOp opens the root span of a traced operation.
func (l *spanLog) beginOp() *tracer {
	t := &tracer{log: l}
	for i := range t.phaseOpen {
		t.phaseOpen[i] = -1
	}
	t.rootID = spanIDs.Add(1)
	t.own = []span{{start: nowNs(), end: -1, id: t.rootID, parent: -1, layer: layerOp}}
	t.phase.Store(t.rootID)
	t.misc = t.newBuf()
	return t
}

func (t *tracer) newBuf() *spanBuf {
	b := &spanBuf{}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// endOp closes the root span and moves the operation's spans to the log.
func (t *tracer) endOp() {
	t.mu.Lock()
	t.own[0].end = nowNs()
	t.spans = append(t.spans, t.own...)
	for _, b := range t.bufs {
		b.mu.Lock()
		t.spans = append(t.spans, b.s...)
		for l, ns := range b.ns {
			t.layerNs[l] += ns
		}
		b.mu.Unlock()
	}
	t.mu.Unlock()
	t.log.mu.Lock()
	t.log.spans = append(t.log.spans, t.spans...)
	t.log.mu.Unlock()
}

// leaf records into b a span that started at start and ends now, returning
// now.
func (t *tracer) leaf(b *spanBuf, l layer, detail uint8, start int64) int64 {
	end := nowNs()
	b.add(span{start: start, end: end, id: -1, parent: t.phase.Load(), layer: l, detail: detail})
	return end
}

// selfNs is the root span's duration minus the part of it covered by
// spans of other layers (selfExcluded). Call it after endOp.
func (t *tracer) selfNs() int64 {
	root := t.own[0]
	var iv [][2]int64
	for _, s := range t.spans {
		if selfExcluded[s.layer] && s.end > s.start {
			iv = append(iv, [2]int64{max(s.start, root.start), min(s.end, root.end)})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered int64
	curS, curE := int64(-1), int64(-1)
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if v[0] > curE {
			covered += curE - curS
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	covered += curE - curS
	return (root.end - root.start) - covered
}

// onEvent consumes the engine's progress events: source phase transitions
// become phase spans, and the destination's handshake start closes hostd's
// accept-to-handshake interval.
func (t *tracer) onEvent(ev core.Event) {
	if ev.Kind != core.EventPhaseStart && ev.Kind != core.EventPhaseEnd {
		return
	}
	idx := -1
	for i, p := range phaseNames {
		if p == ev.Phase {
			idx = i
		}
	}
	if idx < 0 {
		return
	}
	now := nowNs()
	if ev.Side == "dest" {
		if ev.Kind == core.EventPhaseStart && idx == 0 {
			if acc := t.acceptedAt.Load(); acc > 0 && t.handshakeNs.CompareAndSwap(0, now-acc) {
				t.misc.add(span{start: acc, end: now, id: -1, parent: t.rootID, layer: layerHandshake})
			}
		}
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ev.Kind == core.EventPhaseStart {
		id := spanIDs.Add(1)
		t.phaseOpen[idx] = len(t.own)
		t.own = append(t.own, span{start: now, end: -1, id: id, parent: t.rootID, layer: layerPhase, detail: uint8(idx)})
		t.phase.Store(id)
		return
	}
	if i := t.phaseOpen[idx]; i >= 0 {
		s := &t.own[i]
		s.end = now
		t.phaseNs[idx].Add(s.end - s.start)
		t.phaseOpen[idx] = -1
		t.phase.Store(t.rootID)
	}
}

// writeSpans dumps the log as TSV: span id (operations and phases only),
// parent id, layer, and start and end in nanoseconds since the process
// started.
func (l *spanLog) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id\tparent\tlayer\tstart_ns\tend_ns")
	l.mu.Lock()
	for _, s := range l.spans {
		name := layerNames[s.layer]
		switch s.layer {
		case layerPhase:
			name += "." + phaseNames[s.detail]
		case layerSim:
			name += "." + simNames[s.detail]
		}
		id := "-"
		if s.id > 0 {
			id = strconv.Itoa(int(s.id))
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\n", id, s.parent, name, s.start, s.end)
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedConn wraps the source's migration connection.
type tracedConn struct {
	transport.Conn
	t   *tracer
	buf *spanBuf

	mu      sync.Mutex
	pending map[uint64]int64 // request frame key -> time its Send returned
}

func newTracedConn(c transport.Conn, t *tracer) *tracedConn {
	return &tracedConn{Conn: c, t: t, buf: t.newBuf(), pending: make(map[uint64]int64)}
}

// requestKey pairs a request frame with its reply: a delta signature
// request (empty DELTA_SIG) is answered by a DELTA_SIG with the same Arg, a
// HASH_ADVERT by a HASH_WANT with the same Arg.
func requestKey(typ transport.MsgType, arg uint64) uint64 {
	return uint64(typ)<<56 ^ arg
}

func (c *tracedConn) Send(m transport.Message) error {
	typ, arg, size := m.Type, m.Arg, int64(m.FrameSize())
	isReq := (typ == transport.MsgDeltaSig && len(m.Payload) == 0) || typ == transport.MsgHashAdvert
	start := nowNs()
	err := c.Conn.Send(m)
	end := c.t.leaf(c.buf, layerSend, 0, start)
	c.t.sends.Add(1)
	c.t.sendBytes.Add(size)
	c.t.frames[typ].Add(1)
	if isReq {
		if typ == transport.MsgDeltaSig {
			c.t.sigRTTs.Add(1)
		}
		c.mu.Lock()
		c.pending[requestKey(typ, arg)] = end
		c.mu.Unlock()
	}
	return err
}

func (c *tracedConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	c.t.frames[m.Type].Add(1)
	reqType := transport.MsgType(0)
	switch m.Type {
	case transport.MsgDeltaSig:
		reqType = transport.MsgDeltaSig
	case transport.MsgHashWant:
		reqType = transport.MsgHashAdvert
	}
	if reqType != 0 {
		key := requestKey(reqType, m.Arg)
		c.mu.Lock()
		sent, ok := c.pending[key]
		delete(c.pending, key)
		c.mu.Unlock()
		if ok {
			end := c.t.leaf(c.buf, layerRecvWait, 0, sent)
			if reqType == transport.MsgDeltaSig {
				c.t.sigWaitNs.Add(end - sent)
			}
		}
	}
	return m, nil
}

// tracedVolume wraps a volume for one migration. As a source it times the
// snapshot reads pre-copy makes; as a destination it times block writes.
type tracedVolume struct {
	blockdev.Volume
	t    *tracer
	dest bool
	buf  *spanBuf
}

func newTracedVolume(v blockdev.Volume, t *tracer, dest bool) *tracedVolume {
	return &tracedVolume{Volume: v, t: t, dest: dest, buf: t.newBuf()}
}

func (v *tracedVolume) WriteBlock(n int, src []byte) error {
	if !v.dest {
		return v.Volume.WriteBlock(n, src)
	}
	start := nowNs()
	err := v.Volume.WriteBlock(n, src)
	v.t.leaf(v.buf, layerDestWrite, 0, start)
	return err
}

func (v *tracedVolume) Snapshot() blockdev.Snapshot {
	return &tracedSnapshot{Snapshot: v.Volume.Snapshot(), t: v.t, buf: v.t.newBuf()}
}

type tracedSnapshot struct {
	blockdev.Snapshot
	t   *tracer
	buf *spanBuf
}

func (s *tracedSnapshot) ReadBlock(n int, dst []byte) error {
	start := nowNs()
	err := s.Snapshot.ReadBlock(n, dst)
	s.t.leaf(s.buf, layerSnapRead, 0, start)
	return err
}

// tracedPolicy forwards every decision to DefaultPolicy and counts the
// feedback the engine reports through the Observe hooks.
type tracedPolicy struct {
	core.DefaultPolicy
	t *tracer
}

func (p *tracedPolicy) ObserveExtent(blocks int, wireBytes int64, d time.Duration) {
	p.t.extents.Add(1)
	p.t.extentNs.Add(int64(d))
	p.DefaultPolicy.ObserveExtent(blocks, wireBytes, d)
}

func (p *tracedPolicy) ObserveCompression(kind transport.MsgType, rawLen, wireLen int) {
	p.t.compN.Add(1)
	p.t.compRaw.Add(int64(rawLen))
	p.t.compWire.Add(int64(wireLen))
	if wireLen == rawLen+1 {
		p.t.compRawN.Add(1)
	}
	p.DefaultPolicy.ObserveCompression(kind, rawLen, wireLen)
}

// tracedListener wraps the destination's listener: accepted connections
// time their socket reads and writes, and the accept instant starts hostd's
// handshake interval.
type tracedListener struct {
	net.Listener
	t *tracer
	// hostd marks a hostd ServeOne destination: the accept starts the
	// handshake interval, and frames are counted from the byte stream
	// because the source connection is dialed inside hostd, out of reach
	// of a Conn wrapper.
	hostd bool
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	s := &tracedSock{Conn: c, t: l.t, buf: l.t.newBuf()}
	if l.hostd {
		l.t.acceptedAt.CompareAndSwap(0, nowNs())
		s.rd, s.wr = l.t.countFrames(), l.t.countFrames()
	}
	return s, nil
}

type tracedSock struct {
	net.Conn
	t      *tracer
	buf    *spanBuf
	rd, wr *frameScanner // nil unless the listener counts frames
}

func (s *tracedSock) Read(p []byte) (int, error) {
	start := nowNs()
	n, err := s.Conn.Read(p)
	s.t.leaf(s.buf, layerSockRead, 0, start)
	if s.rd != nil {
		s.rd.feed(p[:n])
	}
	return n, err
}

func (s *tracedSock) Write(p []byte) (int, error) {
	start := nowNs()
	n, err := s.Conn.Write(p)
	s.t.leaf(s.buf, layerSockWrite, 0, start)
	if s.wr != nil {
		s.wr.feed(p[:n])
	}
	return n, err
}

// frameScanner follows the frame headers in one direction of a byte
// stream (type 1 byte, arg 8, payload length 4) and reports each frame's
// header. It lets the destination socket count the frames of a migration
// whose source connection is opened inside hostd, where no Conn wrapper
// fits.
type frameScanner struct {
	onFrame func(typ transport.MsgType, arg uint64, payloadLen int)
	hdr     [13]byte
	have    int
	skip    int64
}

func (t *tracer) countFrames() *frameScanner {
	return &frameScanner{onFrame: func(typ transport.MsgType, _ uint64, _ int) { t.frames[typ].Add(1) }}
}

func (f *frameScanner) feed(p []byte) {
	for len(p) > 0 {
		if f.skip > 0 {
			n := min(int64(len(p)), f.skip)
			f.skip -= n
			p = p[n:]
			continue
		}
		n := copy(f.hdr[f.have:], p)
		f.have += n
		p = p[n:]
		if f.have == len(f.hdr) {
			f.skip = int64(binary.LittleEndian.Uint32(f.hdr[9:]))
			f.onFrame(transport.MsgType(f.hdr[0]), binary.LittleEndian.Uint64(f.hdr[1:]), int(f.skip))
			f.have = 0
		}
	}
}
