// Load reporting and incremental pre-sync — the hostd surface the cluster
// orchestrator builds on. Load() is the per-machine utilization report a
// cluster heartbeat collects; SyncOut/ServeSync push a domain's divergence
// to a peer's retained-disk store *without* migrating, so a later MigrateOut
// to that peer ships only the blocks written since — the paper's IM applied
// as a pre-sync that shrinks the cutover window of planned maintenance.

package hostd

import (
	"fmt"
	"net"
	"sort"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/clock"
	"bbmig/internal/core"
	"bbmig/internal/dedup"
	"bbmig/internal/transport"
)

// Load is a point-in-time utilization snapshot of one Machine: the
// per-machine load report the cluster layer's register/heartbeat path
// collects to drive placement and admission decisions.
type Load struct {
	// Domains is the number of guests currently hosted.
	Domains int
	// Blocks is the total VBD size across hosted guests, in blocks — the
	// capacity proxy placement scores against.
	Blocks int64
	// ActiveMigrations counts in-flight inbound plus outbound migrations.
	ActiveMigrations int
	// RetainedDisks counts peer copies held for departed domains; a
	// migration of one of those domains back here is incremental.
	RetainedDisks int
	// Retained names the domains whose peer copies this machine holds,
	// sorted. The cluster's placement engine weights content overlap with
	// it: migrating a domain toward a host that retains its disk is both
	// positionally incremental (the vault) and content-deduplicable (the
	// fingerprint index).
	Retained []string
	// DomainWrites maps each hosted domain to its backend's cumulative
	// block-write counter. Successive heartbeats turn the deltas into
	// dirty-rate observations — the raw feed of the cluster layer's
	// forecast models. The counter restarts from zero when a domain
	// migrates (the destination builds a fresh backend); consumers treat a
	// backwards step as a restart.
	DomainWrites map[string]int64
}

// Load reports the machine's current utilization.
func (m *Machine) Load() Load {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := Load{
		Domains:          len(m.domains),
		ActiveMigrations: len(m.migrating),
		RetainedDisks:    len(m.retained),
		DomainWrites:     make(map[string]int64, len(m.domains)),
	}
	for name := range m.retained {
		l.Retained = append(l.Retained, name)
	}
	sort.Strings(l.Retained)
	for name, d := range m.domains {
		l.Blocks += int64(d.disk.NumBlocks())
		l.DomainWrites[name] = d.backend.Stats().Writes
	}
	return l
}

// SyncReport summarizes one pre-sync transfer.
type SyncReport struct {
	// Domain is the synced domain's name.
	Domain string
	// Blocks is how many divergent blocks were shipped.
	Blocks int
	// WireBytes is the total bytes sent, frame headers included.
	WireBytes int64
	// DedupBlocks counts the shipped blocks that travelled as 16-byte
	// content references (or zero elisions) instead of literals — only with
	// core.Config.Dedup set on the pre-sync.
	DedupBlocks int
	// Duration is the transfer's wall (or virtual-clock) time.
	Duration time.Duration
}

// SyncOut pushes the named domain's divergence against destHost to the
// machine serving ServeSync at addr, without migrating: the destination
// stores the blocks in its retained-disk store and the local vault marks
// destHost synced, while the guest keeps running throughout (writes racing
// or following the sync re-diverge and travel later). A MigrateOut to
// destHost afterwards ships only the blocks written since — the incremental
// pre-sync the paper prescribes for planned maintenance, shrinking the final
// cutover window from a whole-disk copy to the recent write set.
//
// Honoured cfg fields: BandwidthLimit and Policy pace the transfer (the
// pacing verdict is re-read per frame, so a core.BudgetPolicy shares a
// cluster budget live), MaxExtentBlocks coalesces runs, Clock times and
// paces it. The sync stream is always a single uncompressed connection.
//
// On any failure the shipped set is re-diverged in the vault, so a torn sync
// can never make a later incremental migration skip blocks the destination
// missed.
func (m *Machine) SyncOut(domainName, destHost, addr string, cfg core.Config) (*SyncReport, error) {
	m.mu.Lock()
	d, ok := m.domains[domainName]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("hostd: no domain %q on %s", domainName, m.Name)
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	bm := d.vault.InitialFor(destHost)
	rep := &SyncReport{Domain: domainName}
	if bm.Count() == 0 {
		return rep, nil // destHost already holds an identical copy
	}

	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	mem := d.vmRef.Memory()
	ann := announce{
		name:    domainName,
		srcHost: m.Name,
		geom: transport.Geometry{
			BlockSize: d.disk.BlockSize(), NumBlocks: d.disk.NumBlocks(),
			PageSize: mem.PageSize(), NumPages: mem.NumPages(),
		},
		kind: d.workKind, work: d.hasWork, streams: 1,
		dedup: cfg.Dedup,
	}
	ab, err := ann.marshal()
	if err != nil {
		return nil, err
	}
	meter := transport.NewMeter(conn)
	if err := meter.Send(transport.Message{Type: transport.MsgAnnounce, Payload: ab}); err != nil {
		return nil, err
	}

	// Mark synced BEFORE reading any block: a write landing after this point
	// is re-recorded as divergence even if the sync's read misses it, and a
	// write landing before it is on the disk the reads observe. Either way no
	// write can fall between the synced set and the divergence set.
	d.vault.MarkSynced(destHost)
	// Freeze the read side on a snapshot taken after the mark: every block
	// the sync ships is the disk's content at this instant, so the peer copy
	// is a consistent image rather than a live-read race, and the guest's
	// writes proceed against the volume without contending with the pass.
	// A write that lands after the mark but before the snapshot is both in
	// the snapshot and re-diverged — shipped now and again later, safe twice.
	src, releaseSnap := blockdev.SnapshotOf(d.disk)
	defer releaseSnap()
	fail := func(err error) (*SyncReport, error) {
		d.vault.DivergePeer(destHost, bm) // a torn sync re-diverges the whole attempt
		return rep, err
	}

	// The pacing discipline below (limiter built from the policy's initial
	// verdict, re-read and SetRate'd per frame) intentionally mirrors the
	// engine's transfer.send; keep the two in step if either changes.
	pol := cfg.Policy
	if pol == nil {
		pol = core.DefaultPolicy{}
	}
	bw := cfg.BandwidthLimit
	if bw <= 0 {
		bw = clock.Unlimited
	}
	var limiter *clock.RateLimiter
	if rate := pol.PrecopyRate(bw); rate != clock.Unlimited && rate > 0 {
		limiter = clock.NewRateLimiter(clk, rate, rate/10)
	}

	bs := d.disk.BlockSize()
	maxExt := cfg.MaxExtentBlocks
	if maxExt < 1 {
		maxExt = 1
	}
	if limit := transport.MaxPayload / bs; maxExt > limit {
		maxExt = limit
	}
	start := clk.Now()
	send := func(msg transport.Message) error {
		if limiter != nil {
			if rate := pol.PrecopyRate(bw); rate > 0 && rate != limiter.Rate() {
				limiter.SetRate(rate)
			}
			limiter.Wait(msg.FrameSize())
		}
		return meter.Send(msg)
	}
	buf := make([]byte, maxExt*bs)
	for pos := 0; ; {
		ext := bm.NextExtent(pos, maxExt)
		if ext.Count == 0 {
			break
		}
		data := buf[:ext.Count*bs]
		for k := 0; k < ext.Count; k++ {
			if err := src.ReadBlock(ext.Start+k, data[k*bs:(k+1)*bs]); err != nil {
				return fail(err)
			}
		}
		if cfg.Dedup {
			if err := syncSendDedup(meter, send, rep, ext, data, bs); err != nil {
				return fail(err)
			}
		} else {
			msg := transport.Message{Type: transport.MsgExtent, Arg: transport.ExtentArg(ext.Start, ext.Count), Payload: data}
			if ext.Count == 1 {
				msg = transport.Message{Type: transport.MsgBlockData, Arg: uint64(ext.Start), Payload: data}
			}
			if err := send(msg); err != nil {
				return fail(fmt.Errorf("hostd: sync send: %w", err))
			}
		}
		rep.Blocks += ext.Count
		pos = ext.End()
	}
	if err := meter.Send(transport.Message{Type: transport.MsgDone, Arg: uint64(rep.Blocks)}); err != nil {
		return fail(err)
	}
	// The ack is authoritative: bytes in a dead socket's buffer are not a
	// sync. Without it the vault could believe in a copy nobody holds.
	ackm, err := meter.Recv()
	if err != nil {
		return fail(fmt.Errorf("hostd: sync ack: %w", err))
	}
	if ackm.Type != transport.MsgDone {
		return fail(fmt.Errorf("hostd: sync ack: unexpected %v", ackm.Type))
	}
	rep.WireBytes = meter.BytesSent()
	rep.Duration = clk.Now() - start
	return rep, nil
}

// syncSendDedup moves one pre-sync extent under the content-dedup protocol:
// all-zero runs and destination-held content travel as 16-byte references,
// the rest as literals — the engine's advert/want/ref exchange with one
// advert outstanding (docs/WIRE.md §10) and the want reply read inline,
// since the sync stream has no concurrent reader.
func syncSendDedup(conn transport.Conn, send func(transport.Message) error, rep *SyncReport, ext bitmap.Extent, data []byte, bs int) error {
	zero := dedup.ZeroFingerprint(bs)
	fps := make([]dedup.Fingerprint, ext.Count)
	allZero := true
	for k := range fps {
		fps[k] = dedup.Of(data[k*bs : (k+1)*bs])
		if fps[k] != zero {
			allZero = false
		}
	}
	arg := transport.ExtentArg(ext.Start, ext.Count)
	if allZero {
		rep.DedupBlocks += ext.Count
		return send(transport.Message{Type: transport.MsgBlockRef, Arg: arg, Payload: dedup.AppendFingerprints(nil, fps)})
	}
	literal := func(sub bitmap.Extent, body []byte) transport.Message {
		if sub.Count == 1 {
			return transport.Message{Type: transport.MsgBlockData, Arg: uint64(sub.Start), Payload: body}
		}
		return transport.Message{Type: transport.MsgExtent, Arg: transport.ExtentArg(sub.Start, sub.Count), Payload: body}
	}
	if err := send(transport.Message{Type: transport.MsgHashAdvert, Arg: arg, Payload: dedup.AppendFingerprints(nil, fps)}); err != nil {
		return err
	}
	reply, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("hostd: sync want: %w", err)
	}
	if reply.Type != transport.MsgHashWant || reply.Arg != arg {
		return fmt.Errorf("hostd: sync want: unexpected %v", reply.Type)
	}
	want := reply.Payload
	if len(want) != dedup.WantLen(ext.Count) {
		return fmt.Errorf("hostd: sync want bitmap %d bytes for %d blocks", len(want), ext.Count)
	}
	return dedup.WalkWant(ext.Count, want, func(off, n int, wanted bool) error {
		sub := bitmap.Extent{Start: ext.Start + off, Count: n}
		var m transport.Message
		if wanted {
			m = literal(sub, data[off*bs:(off+n)*bs])
		} else {
			m = transport.Message{Type: transport.MsgBlockRef, Arg: transport.ExtentArg(sub.Start, sub.Count), Payload: dedup.AppendFingerprints(nil, fps[off:off+n])}
			rep.DedupBlocks += sub.Count
		}
		return send(m)
	})
}

// ServeSync accepts exactly one inbound pre-sync on l and applies it to this
// machine's retained-disk store: the named domain's peer copy is created (or
// updated in place) so a later inbound migration of that domain runs
// incrementally. The domain itself does not move and no VM shell is created.
func (m *Machine) ServeSync(l net.Listener) (*SyncReport, error) {
	conn, err := transport.Accept(l)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	first, err := conn.Recv()
	if err != nil {
		return nil, err
	}
	if first.Type != transport.MsgAnnounce {
		return nil, fmt.Errorf("hostd: expected ANNOUNCE, got %v", first.Type)
	}
	ann, err := unmarshalAnnounce(first.Payload)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	if _, exists := m.domains[ann.name]; exists {
		m.mu.Unlock()
		return nil, fmt.Errorf("hostd: domain %q is hosted on %s; sync targets only peer copies", ann.name, m.Name)
	}
	disk := m.retained[ann.name]
	if disk == nil || disk.NumBlocks() != ann.geom.NumBlocks {
		disk = m.newVolumeLocked(blockdev.NewMemDisk(ann.geom.NumBlocks, blockdev.BlockSize))
		m.retained[ann.name] = disk
	}
	m.mu.Unlock()

	// A dedup'd sync answers adverts from the machine index; the synced
	// disk itself is a registered source, so content the peer copy already
	// holds elsewhere (or clone siblings hold) never retransmits.
	var idx *dedup.Index
	var stage map[dedup.Fingerprint][]byte
	if ann.dedup {
		idx = m.prepareDedup()
	}
	self := diskSourceName(ann.name)

	rep := &SyncReport{Domain: ann.name}
	bs := disk.BlockSize()
	write := func(n int, data []byte) error {
		if err := disk.WriteBlock(n, data); err != nil {
			return err
		}
		if idx != nil {
			idx.Observe(self, n, dedup.Of(data))
		}
		return nil
	}
	for {
		msg, err := conn.Recv()
		if err != nil {
			return rep, fmt.Errorf("hostd: sync receive: %w", err)
		}
		switch msg.Type {
		case transport.MsgBlockData:
			if err := write(int(msg.Arg), msg.Payload); err != nil {
				return rep, err
			}
			rep.Blocks++
		case transport.MsgExtent:
			start, count := transport.ExtentSplit(msg.Arg)
			if count < 1 || start < 0 || start+count > disk.NumBlocks() || len(msg.Payload) != count*bs {
				return rep, fmt.Errorf("hostd: sync extent [%d,+%d) invalid", start, count)
			}
			for k := 0; k < count; k++ {
				if err := write(start+k, msg.Payload[k*bs:(k+1)*bs]); err != nil {
					return rep, err
				}
			}
			rep.Blocks += count
		case transport.MsgHashAdvert:
			if idx == nil {
				return rep, fmt.Errorf("hostd: HASH_ADVERT on a sync without dedup")
			}
			start, count := transport.ExtentSplit(msg.Arg)
			if count < 1 || start < 0 || start+count > disk.NumBlocks() {
				return rep, fmt.Errorf("hostd: sync advert [%d,+%d) invalid", start, count)
			}
			fps, err := dedup.ParseFingerprints(msg.Payload, count)
			if err != nil {
				return rep, err
			}
			var want []byte
			want, stage = idx.Answer(fps)
			if err := conn.Send(transport.Message{Type: transport.MsgHashWant, Arg: msg.Arg, Payload: want}); err != nil {
				return rep, err
			}
		case transport.MsgBlockRef:
			if idx == nil {
				return rep, fmt.Errorf("hostd: BLOCK_REF on a sync without dedup")
			}
			start, count := transport.ExtentSplit(msg.Arg)
			if count < 1 || start < 0 || start+count > disk.NumBlocks() {
				return rep, fmt.Errorf("hostd: sync ref [%d,+%d) invalid", start, count)
			}
			fps, err := dedup.ParseFingerprints(msg.Payload, count)
			if err != nil {
				return rep, err
			}
			for k, fp := range fps {
				content, ok := idx.Materialize(stage, fp)
				if !ok {
					return rep, fmt.Errorf("hostd: sync ref %d names unknown content", start+k)
				}
				if err := disk.WriteBlock(start+k, content); err != nil {
					return rep, err
				}
				// The fingerprint is already in hand: observe it directly
				// instead of re-hashing 4 KiB per referenced block.
				idx.Observe(self, start+k, fp)
			}
			rep.Blocks += count
			rep.DedupBlocks += count
		case transport.MsgDone:
			if int(msg.Arg) != rep.Blocks {
				return rep, fmt.Errorf("hostd: sync count %d, received %d", msg.Arg, rep.Blocks)
			}
			if err := conn.Send(transport.Message{Type: transport.MsgDone, Arg: msg.Arg}); err != nil {
				return rep, err
			}
			if idx != nil {
				_ = m.SaveIndex()
			}
			return rep, nil
		case transport.MsgError:
			return rep, fmt.Errorf("hostd: sync aborted by source: %s", msg.Payload)
		default:
			return rep, fmt.Errorf("hostd: unexpected sync frame %v", msg.Type)
		}
	}
}
