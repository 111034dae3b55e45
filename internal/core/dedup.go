package core

import (
	"fmt"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/dedup"
	"bbmig/internal/transport"
)

// This file is the engine half of content-addressed transfer (Config.Dedup):
// the source-side dedup send path that replaces literal extent sends during
// disk pre-copy, and the destination-side advert/reference appliers wired
// into the receive loop. Per extent the source sends one MsgHashAdvert, the
// destination answers one MsgHashWant, and the source then sends the
// extent's literal sub-runs and MsgBlockRef sub-runs. When the destination
// offers transport.HelloAckAdvertWindow the source keeps up to advertWindow
// adverts outstanding, so both ends work at once; without the offer (an
// older peer, or Delta also negotiated) one advert is outstanding at a time,
// the seed exchange. Either way extents finish in cursor order, and a
// reference names a fingerprint from its own extent's advert or the
// implicit zero fingerprint, which needs no advert at all. Memory pages,
// freeze-and-copy, and post-copy pushes are never deduplicated.

// advertWindow is how many MsgHashAdvert frames a source keeps outstanding
// when the destination offers transport.HelloAckAdvertWindow, and how many
// answered adverts such a destination keeps staged. Four hides the round
// trip behind the next extents' reads and fingerprints on loopback and LAN
// links; more only grows what both ends hold.
const advertWindow = 4

// dedupQueueMax bounds the extents queued behind outstanding adverts,
// all-zero runs included, so a sparse disk cannot grow the queue without
// bound while an advert waits for its reply.
const dedupQueueMax = 4 * advertWindow

// dedupEntry is one extent of a dedup send pass between its read and its
// finish: an advert awaiting its want reply, or an all-zero run (data nil)
// queued behind outstanding adverts so that frames leave in cursor order.
type dedupEntry struct {
	ext   bitmap.Extent
	data  []byte // pooled extent content; nil for an all-zero run
	fps   []dedup.Fingerprint
	wire  int64 // advert bytes already sent
	start time.Duration
}

// sendExtentsDedup is the dedup counterpart of sendExtentsSeq: it walks bm's
// runs with a cursor, fingerprints each extent, elides all-zero runs
// outright, and adverts the rest, sending only what the destination wants
// literally. Up to t.advertWindow adverts are outstanding at once; the
// extents finish in cursor order, and the window is drained before the
// pass returns, so the caller's ITER_END follows every frame of the pass.
func (t *transfer) sendExtentsDedup(bm *bitmap.Bitmap, phaseName string, limited bool) (int, int64, error) {
	dev := t.srcDev
	bs := dev.BlockSize()
	zero := dedup.ZeroFingerprint(bs)
	window := max(t.advertWindow, 1)
	var queue, spare []*dedupEntry
	defer func() {
		for _, e := range queue {
			transport.PutBuf(e.data)
		}
	}()
	outstanding := 0 // adverts sent whose want reply is not consumed yet
	sent := 0
	var bytes int64
	// settle finishes entries from the head of the queue while the head is
	// an all-zero run (nothing ahead of it is unfinished any more), more
	// than limit adverts are outstanding, or the queue is over its bound.
	settle := func(limit int) error {
		for len(queue) > 0 && (queue[0].data == nil || outstanding > limit || len(queue) > dedupQueueMax) {
			e := queue[0]
			queue = queue[1:]
			var wire int64
			var err error
			if e.data == nil {
				wire, err = t.sendZeroRef(e, limited)
			} else {
				outstanding--
				wire, err = t.finishAdvert(e, limited)
				transport.PutBuf(e.data)
				e.data = nil
			}
			spare = append(spare, e)
			if err != nil {
				return err
			}
			wire += e.wire
			t.pol.ObserveExtent(e.ext.Count, wire, t.clk.Now()-e.start)
			sent += e.ext.Count
			bytes += wire
		}
		return nil
	}
	for pos := 0; ; {
		ext := bm.NextExtent(pos, t.extentBlocks(phaseName))
		if ext.Count == 0 {
			break
		}
		pos = ext.End()
		var e *dedupEntry
		if n := len(spare); n > 0 {
			e, spare = spare[n-1], spare[:n-1]
		} else {
			e = &dedupEntry{}
		}
		e.ext, e.start, e.wire = ext, t.clk.Now(), 0
		e.data = transport.GetBuf(ext.Count * bs)
		e.fps = e.fps[:0]
		allZero := true
		for k := 0; k < ext.Count; k++ {
			blk := e.data[k*bs : (k+1)*bs]
			if err := dev.ReadBlock(ext.Start+k, blk); err != nil {
				transport.PutBuf(e.data)
				return sent, bytes, err
			}
			fp := dedup.Of(blk)
			e.fps = append(e.fps, fp)
			if fp != zero {
				allZero = false
			}
		}
		if allZero {
			// Zero elision needs no round trip and no content: the zero
			// fingerprint is always resolvable.
			transport.PutBuf(e.data)
			e.data = nil
		} else {
			adv, err := t.sendAdvert(e, limited)
			if err != nil {
				transport.PutBuf(e.data)
				return sent, bytes, err
			}
			e.wire = adv
			outstanding++
		}
		queue = append(queue, e)
		// Leave at most window-1 adverts outstanding while the next extent
		// is read, so the next advert fits the window. A windowless session
		// thus finishes each extent before reading the next — the seed
		// order, in which a policy observes every extent before sizing the
		// next one.
		if err := settle(window - 1); err != nil {
			return sent, bytes, err
		}
	}
	if err := settle(-1); err != nil {
		return sent, bytes, err
	}
	// With Delta also negotiated, the wanted sub-runs may have travelled as
	// patches; the fence bounds them (no-op otherwise).
	fenceWire, err := t.deltaFence(limited)
	return sent, bytes + fenceWire, err
}

// sendZeroRef moves one all-zero extent as a single MsgBlockRef of its
// (zero) fingerprints: the destination materializes zeros with no round
// trip and no staging.
func (t *transfer) sendZeroRef(e *dedupEntry, limited bool) (int64, error) {
	fpBuf := transport.GetBuf(len(e.fps) * dedup.FingerprintSize)
	defer transport.PutBuf(fpBuf)
	m := transport.Message{
		Type:    transport.MsgBlockRef,
		Arg:     transport.ExtentArg(e.ext.Start, e.ext.Count),
		Payload: dedup.AppendFingerprints(fpBuf[:0], e.fps),
	}
	if err := t.send(m, limited); err != nil {
		return 0, err
	}
	t.dedupBlocks += e.ext.Count
	return int64(m.FrameSize()), nil
}

// sendAdvert sends one extent's MsgHashAdvert and returns its wire bytes.
// The fingerprint payload is staged in a pooled scratch buffer: sends only
// borrow their payload, so the scratch is reusable the moment the send
// returns.
func (t *transfer) sendAdvert(e *dedupEntry, limited bool) (int64, error) {
	fpBuf := transport.GetBuf(len(e.fps) * dedup.FingerprintSize)
	defer transport.PutBuf(fpBuf)
	adv := transport.Message{
		Type:    transport.MsgHashAdvert,
		Arg:     transport.ExtentArg(e.ext.Start, e.ext.Count),
		Payload: dedup.AppendFingerprints(fpBuf[:0], e.fps),
	}
	if err := t.send(adv, limited); err != nil {
		return 0, err
	}
	return int64(adv.FrameSize()), nil
}

// finishAdvert consumes the want reply to e's advert and sends the extent's
// literal and reference sub-runs, returning their wire bytes.
func (t *transfer) finishAdvert(e *dedupEntry, limited bool) (int64, error) {
	bs := t.srcDev.BlockSize()
	ext, data, fps := e.ext, e.data, e.fps
	want, err := t.awaitWant(transport.ExtentArg(ext.Start, ext.Count))
	if err != nil {
		return 0, err
	}
	defer transport.PutBuf(want) // the reply's pooled payload, fully consumed
	if len(want) != dedup.WantLen(ext.Count) {
		return 0, fmt.Errorf("core: want bitmap %d bytes for %d-block advert", len(want), ext.Count)
	}
	fpBuf := transport.GetBuf(len(fps) * dedup.FingerprintSize)
	defer transport.PutBuf(fpBuf)
	var wire int64
	// Walk the want bitmap as maximal same-verdict runs: wanted runs travel
	// as literals (single blocks keep the seed's MsgBlockData form) — or
	// through the delta protocol when that is also negotiated, since a
	// wanted run is exactly the content exact-match dedup could not save —
	// and unwanted runs as fingerprint references.
	err = dedup.WalkWant(ext.Count, want, func(off, n int, wanted bool) error {
		sub := bitmap.Extent{Start: ext.Start + off, Count: n}
		var m transport.Message
		if wanted {
			if t.cfg.Delta && t.awaitDeltaSig != nil {
				w, err := t.sendDeltaExtent(sub, data[off*bs:(off+n)*bs], limited)
				wire += w
				return err
			}
			m = extentMessage(sub, data[off*bs:(off+n)*bs])
		} else {
			m = transport.Message{
				Type:    transport.MsgBlockRef,
				Arg:     transport.ExtentArg(sub.Start, sub.Count),
				Payload: dedup.AppendFingerprints(fpBuf[:0], fps[off:off+n]),
			}
			t.dedupBlocks += sub.Count
		}
		if err := t.send(m, limited); err != nil {
			return err
		}
		wire += int64(m.FrameSize())
		return nil
	})
	return wire, err
}

// --- Destination side ---

// destDedup is one migration's destination-side dedup session: the
// fingerprint index consulted for adverts, the answered adverts whose
// references may still arrive, and the name the destination VBD's own
// blocks are observed under.
type destDedup struct {
	idx  *dedup.Index
	self string
	refs int // blocks materialized by reference (Report.DedupBlocks)

	// window is how many answered adverts are kept: advertWindow when this
	// destination offered transport.HelloAckAdvertWindow, else 1 (the
	// source keeps one advert outstanding). answered holds them, oldest
	// first. promised maps each fingerprint an advert in the window asked
	// for as a literal to the block that literal lands on; it is kept only
	// when window > 1. Both are cleared at every ITER_START and whenever
	// the session generation gen moves (a resume).
	window   int
	answered []*answeredAdvert
	promised map[dedup.Fingerprint]int
	gen      uint64

	// swarm fans want-sets across peer host daemons (Config.Swarm); nil
	// keeps the session single-source. swarmBlocks counts blocks whose
	// content a peer produced (Report.SwarmBlocks).
	swarm       *swarmClient
	swarmBlocks int
}

// answeredAdvert is what the destination keeps of one answered advert for
// the references that follow it: the content it staged, the fingerprints
// it answered "held" because an earlier advert in the window already asked
// for them as literals (each with the block that literal lands on), and the
// fingerprints this advert itself promised.
type answeredAdvert struct {
	ext      bitmap.Extent
	stage    map[dedup.Fingerprint][]byte
	held     map[dedup.Fingerprint]int
	promised []dedup.Fingerprint
}

// reset forgets every answered advert and promise: at an iteration start
// and on resume, nothing staged before can be referenced any more.
func (dd *destDedup) reset() {
	clear(dd.answered)
	dd.answered = dd.answered[:0]
	clear(dd.promised)
}

// syncGen resets the window when the session has been resumed since it was
// last touched: a reconnecting source re-adverts whatever it re-sends.
func (dd *destDedup) syncGen(gen uint64) {
	if gen != dd.gen {
		dd.reset()
		dd.gen = gen
	}
}

// push records a newly answered advert, retiring the oldest beyond the
// window together with its promises. When advert k arrives the source has
// finished every extent up to k-window, so their literals have landed (and
// been observed into the index) and their references have all arrived.
func (dd *destDedup) push(a *answeredAdvert) {
	dd.answered = append(dd.answered, a)
	if n := len(dd.answered) - dd.window; n > 0 {
		for _, old := range dd.answered[:n] {
			for _, fp := range old.promised {
				delete(dd.promised, fp)
			}
		}
		dd.answered = append(dd.answered[:0], dd.answered[n:]...)
	}
}

// find returns the answered advert whose extent holds block, or nil (an
// all-zero run is referenced with no advert).
func (dd *destDedup) find(block int) *answeredAdvert {
	for _, a := range dd.answered {
		if block >= a.ext.Start && block < a.ext.End() {
			return a
		}
	}
	return nil
}

// newDestDedup builds the session state, registering the destination VBD as
// a lookup source so content received earlier in the migration deduplicates
// later iterations.
func newDestDedup(cfg Config, dev blockdev.Device) (*destDedup, error) {
	idx := cfg.DedupIndex
	if idx == nil {
		idx = dedup.NewIndex(dev.BlockSize())
	}
	name := cfg.DedupName
	if name == "" {
		name = "self"
	}
	if err := idx.RegisterSource(name, dev); err != nil {
		return nil, err
	}
	dd := &destDedup{idx: idx, self: name, window: 1}
	if offersAdvertWindow(cfg) {
		dd.window = advertWindow
	}
	return dd, nil
}

// offersAdvertWindow reports whether a destination configured with cfg sets
// transport.HelloAckAdvertWindow. Delta keeps the seed exchange: its wanted
// sub-runs travel as signature round trips that a window would interleave.
func offersAdvertWindow(cfg Config) bool {
	return cfg.Dedup && !cfg.Delta
}

// observe records one applied block's content in the index. Called from
// scatter-pool workers for literals and inline for references; the index is
// concurrency-safe.
func (dd *destDedup) observe(block int, data []byte) {
	dd.idx.Observe(dd.self, block, dedup.Of(data))
}

// checkFPExtent validates a MsgHashAdvert/MsgBlockRef frame against the
// prepared VBD and decodes its fingerprints.
func (t *transfer) checkFPExtent(m transport.Message) (bitmap.Extent, []dedup.Fingerprint, error) {
	start, count := transport.ExtentSplit(m.Arg)
	dev := t.host.Backend.Device()
	if count < 1 || start < 0 || start+count > dev.NumBlocks() {
		return bitmap.Extent{}, nil, fmt.Errorf("core: dedup extent [%d,+%d) outside %d-block VBD", start, count, dev.NumBlocks())
	}
	fps, err := dedup.ParseFingerprints(m.Payload, count)
	if err != nil {
		return bitmap.Extent{}, nil, err
	}
	return bitmap.Extent{Start: start, Count: count}, fps, nil
}

// handleAdvert answers one MsgHashAdvert through Index.Answer. Runs under
// drainOn, so every literal that arrived earlier is applied — and observed —
// before the lookup.
func (d *destRun) handleAdvert(m transport.Message) error {
	ext, fps, err := d.checkFPExtent(m)
	if err != nil {
		return err
	}
	dd := d.dd
	dd.syncGen(d.sess.generation())
	want, stage := dd.idx.Answer(fps)
	a := &answeredAdvert{ext: ext, stage: stage}
	if dd.window > 1 {
		// Promises: an advert in the window already asked for this content
		// as a literal that has not landed yet. A windowless source would
		// have seen it land before this advert and been answered "held", so
		// answer "held" now and resolve the reference from the promised
		// block. Only earlier adverts' promises count: within one advert a
		// repeated miss is wanted every time, as Answer reports it.
		for k, fp := range fps {
			if blk, ok := dd.promised[fp]; ok && dedup.Want(want, k) {
				dedup.ClearWant(want, k)
				if a.held == nil {
					a.held = make(map[dedup.Fingerprint]int)
				}
				a.held[fp] = blk
			}
		}
	}
	// Swarm fetch: before conceding a literal send, ask the peer fleet for
	// the still-wanted content. Whatever arrives (already verified against
	// its fingerprint) is staged exactly as locally-produced content is, and
	// its want bit clears so the source ships a 16-byte reference instead.
	// Anything the swarm misses stays wanted — the literal fallback needs no
	// extra protocol.
	if dd.swarm != nil {
		var missing []dedup.Fingerprint
		seen := make(map[dedup.Fingerprint]bool)
		for k, fp := range fps {
			if dedup.Want(want, k) && !seen[fp] {
				seen[fp] = true
				missing = append(missing, fp)
			}
		}
		if len(missing) > 0 {
			bs := d.host.Backend.Device().BlockSize()
			got := dd.swarm.fetch(missing, bs)
			if len(got) > 0 {
				if stage == nil {
					stage = make(map[dedup.Fingerprint][]byte, len(got))
					a.stage = stage
				}
				for k, fp := range fps {
					if !dedup.Want(want, k) {
						continue
					}
					if content, ok := got[fp]; ok {
						stage[fp] = content
						dedup.ClearWant(want, k)
						dd.swarmBlocks++
					}
				}
			}
		}
	}
	if dd.window > 1 {
		for k, fp := range fps {
			if !dedup.Want(want, k) {
				continue
			}
			if _, ok := dd.promised[fp]; !ok {
				if dd.promised == nil {
					dd.promised = make(map[dedup.Fingerprint]int)
				}
				dd.promised[fp] = ext.Start + k
				a.promised = append(a.promised, fp)
			}
		}
	}
	dd.push(a)
	return d.destSend(transport.Message{Type: transport.MsgHashWant, Arg: m.Arg, Payload: want})
}

// applyBlockRef materializes one MsgBlockRef run. An unresolvable
// fingerprint is a protocol error — the source only sends references for
// content this destination claimed, so reaching it means the claim expired
// mid-extent; failing the migration (and letting the retry path re-send) is
// the only answer that cannot write wrong bytes.
func (d *destRun) applyBlockRef(m transport.Message) error {
	ext, fps, err := d.checkFPExtent(m)
	if err != nil {
		return err
	}
	d.dd.syncGen(d.sess.generation())
	a := d.dd.find(ext.Start)
	dev := d.host.Backend.Device()
	for k, fp := range fps {
		content, ok := d.resolveRef(a, fp)
		if !ok {
			return fmt.Errorf("core: block ref %d names content this host cannot produce", ext.Start+k)
		}
		if err := dev.WriteBlock(ext.Start+k, content); err != nil {
			return fmt.Errorf("core: apply block ref %d: %w", ext.Start+k, err)
		}
		d.dd.idx.Observe(d.dd.self, ext.Start+k, fp)
	}
	d.dd.refs += ext.Count
	d.noteRecvBlocks(ext.Start, ext.End())
	return nil
}

// resolveRef produces one referenced fingerprint's content: zeros, the
// content a staged at advert time, the block a held fingerprint's literal
// landed on (re-read and re-hashed, since only the hash proves the block
// still holds it), and finally the index, which verifies on read.
func (d *destRun) resolveRef(a *answeredAdvert, fp dedup.Fingerprint) ([]byte, bool) {
	if a == nil {
		return d.dd.idx.Materialize(nil, fp)
	}
	if c := a.stage[fp]; c != nil {
		return c, true
	}
	if blk, ok := a.held[fp]; ok {
		buf := make([]byte, d.host.Backend.Device().BlockSize())
		if err := d.host.Backend.Device().ReadBlock(blk, buf); err == nil && dedup.Of(buf) == fp {
			return buf, true
		}
	}
	return d.dd.idx.Materialize(nil, fp)
}
