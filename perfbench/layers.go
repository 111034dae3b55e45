package main

import (
	"bbmig/internal/transport"
)

// metricDef names a printed metric and its unit.
type metricDef struct {
	name, unit string
}

// frameTypes are the frame types counted one by one as
// transport.frames.<TYPE>; every other type is summed into
// transport.frames.other.
var frameTypes = []transport.MsgType{
	transport.MsgExtent, transport.MsgBlockData, transport.MsgMemPage, transport.MsgBitmap,
	transport.MsgPullRequest, transport.MsgHashAdvert, transport.MsgHashWant, transport.MsgBlockRef,
	transport.MsgDeltaSig, transport.MsgDeltaPatch, transport.MsgIterStart, transport.MsgMemIterStart,
}

// perLayerNames are the metrics a traced run prints. Each is averaged over
// the run's traced operations; a layer a workload does not use reports 0.
// BENCHMARK.json lists the same names and units.
var perLayerNames = func() []metricDef {
	ms := []metricDef{
		{"core.self_ms", "ms"},
		{"core.disk_iters", "count"},
		{"core.retransferred_blocks", "count"},
		{"core.extents", "count"},
		{"core.extent_ms", "ms"},
	}
	for _, p := range phaseNames {
		ms = append(ms, metricDef{"core.phase." + p + "_ms", "ms"})
	}
	ms = append(ms,
		metricDef{"transport.send_ms", "ms"},
		metricDef{"transport.sends", "count"},
		metricDef{"transport.send_bytes", "B"},
		metricDef{"transport.recv_wait_ms", "ms"},
		metricDef{"transport.wire_mb", "MB"},
	)
	for _, t := range frameTypes {
		ms = append(ms, metricDef{"transport.frames." + t.String(), "count"})
	}
	ms = append(ms,
		metricDef{"transport.frames.other", "count"},
		metricDef{"transport.compress_ratio", "ratio"},
		metricDef{"transport.compress_raw_share", "ratio"},
		metricDef{"transport.sock_read_ms", "ms"},
		metricDef{"transport.sock_write_ms", "ms"},
		metricDef{"blockdev.snap_read_ms", "ms"},
		metricDef{"blockdev.dest_write_ms", "ms"},
		metricDef{"bcache.hit_rate", "ratio"},
		metricDef{"bcache.evictions", "count"},
		metricDef{"bcache.cow_copies", "count"},
		metricDef{"blkback.pushed", "count"},
		metricDef{"blkback.pulled", "count"},
		metricDef{"blkback.stale_pushes", "count"},
		metricDef{"blkback.read_stall_ms", "ms"},
		metricDef{"dedup.ref_blocks", "count"},
		metricDef{"dedup.hit_ratio", "ratio"},
		metricDef{"hostd.handshake_ms", "ms"},
		metricDef{"delta.blocks", "count"},
		metricDef{"delta.patch_share", "ratio"},
		metricDef{"delta.sig_rtts", "count"},
		metricDef{"delta.sig_wait_ms", "ms"},
		metricDef{"vm.mem_iters", "count"},
		metricDef{"vm.mem_residual_pages", "count"},
		metricDef{"guest.ops", "count"},
		metricDef{"guest.late_ms", "ms"},
		metricDef{"guest.io_p50_us", "us"},
		metricDef{"guest.io_tail_us", "us"},
		metricDef{"guest.downtime_ms", "ms"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"sim.fleet_sweep_s", "s"},
		metricDef{"sim.table1_s", "s"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"bench.ref_ms", "ms"},
	)
	return ms
}()

// layerValues reads one traced operation's per-layer values off its tracer
// and reports.
func layerValues(t *tracer, r *opResult) map[string]float64 {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	m := map[string]float64{
		"core.extents":                 float64(t.extents.Load()),
		"core.extent_ms":               ms(t.extentNs.Load()),
		"transport.send_ms":            ms(t.layerNs[layerSend]),
		"transport.sends":              float64(t.sends.Load()),
		"transport.send_bytes":         float64(t.sendBytes.Load()),
		"transport.recv_wait_ms":       ms(t.layerNs[layerRecvWait]),
		"transport.sock_read_ms":       ms(t.layerNs[layerSockRead]),
		"transport.sock_write_ms":      ms(t.layerNs[layerSockWrite]),
		"blockdev.snap_read_ms":        ms(t.layerNs[layerSnapRead]),
		"blockdev.dest_write_ms":       ms(t.layerNs[layerDestWrite]),
		"bcache.hit_rate":              r.cache.HitRate(),
		"bcache.evictions":             float64(r.cache.Evictions),
		"bcache.cow_copies":            float64(r.cache.CowCopies),
		"hostd.handshake_ms":           ms(t.handshakeNs.Load()),
		"delta.sig_rtts":               float64(t.sigRTTs.Load()),
		"delta.sig_wait_ms":            ms(t.sigWaitNs.Load()),
		"guest.ops":                    float64(r.guestOps),
		"runtime.gc_cycles":            float64(r.gcCycles),
		"runtime.gc_pause_ms":          float64(r.gcPause) / 1e6,
		"sim.fleet_sweep_s":            float64(t.simNs[0].Load()) / 1e9,
		"sim.table1_s":                 float64(t.simNs[1].Load()) / 1e9,
		"transport.compress_ratio":     0,
		"transport.compress_raw_share": 0,
	}
	for i, p := range phaseNames {
		m["core.phase."+p+"_ms"] = ms(t.phaseNs[i].Load())
	}
	counted := make(map[transport.MsgType]bool)
	for _, typ := range frameTypes {
		m["transport.frames."+typ.String()] = float64(t.frames[typ].Load())
		counted[typ] = true
	}
	var other int64
	for i := range t.frames {
		if !counted[transport.MsgType(i)] {
			other += t.frames[i].Load()
		}
	}
	m["transport.frames.other"] = float64(other)
	if raw := t.compRaw.Load(); raw > 0 {
		m["transport.compress_ratio"] = float64(t.compWire.Load()) / float64(raw)
		m["transport.compress_raw_share"] = float64(t.compRawN.Load()) / float64(t.compN.Load())
	}
	if len(r.guestLate) > 0 {
		tail, _ := tailOf(r.guestLate)
		m["guest.late_ms"] = tail / 1e3
	}
	if rep := r.src; rep != nil {
		m["core.self_ms"] = ms(t.selfNs())
		m["core.disk_iters"] = float64(len(rep.DiskIterations))
		m["core.retransferred_blocks"] = float64(rep.RetransferredBlocks())
		m["transport.wire_mb"] = float64(rep.MigratedBytes) / (1 << 20)
		m["guest.downtime_ms"] = float64(rep.Downtime) / 1e6
		// The last memory round is the freeze's copy of the residual pages.
		if n := len(rep.MemIterations); n > 0 {
			m["vm.mem_iters"] = float64(n - 1)
			m["vm.mem_residual_pages"] = float64(rep.MemIterations[n-1].Units)
		}
		var diskUnits int
		for _, it := range rep.DiskIterations {
			diskUnits += it.Units
		}
		m["dedup.ref_blocks"] = float64(rep.DedupBlocks)
		m["delta.blocks"] = float64(rep.DeltaBlocks)
		if diskUnits > 0 {
			m["dedup.hit_ratio"] = float64(rep.DedupBlocks) / float64(diskUnits)
			m["delta.patch_share"] = float64(rep.DeltaBlocks) / float64(diskUnits)
		}
		m["blkback.pushed"] = float64(rep.BlocksPushed)
	}
	if rep := r.dst; rep != nil {
		m["blkback.pulled"] = float64(rep.BlocksPulled)
		m["blkback.stale_pushes"] = float64(rep.StalePushes)
		m["blkback.read_stall_ms"] = float64(rep.ReadStallTime) / 1e6
	}
	return m
}
