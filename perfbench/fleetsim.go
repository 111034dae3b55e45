package main

import (
	"fmt"
	"reflect"

	"bbmig/internal/sim"
)

// fleet-sim: one pass of the simulator at paper scale on virtual time —
// sim.FleetSweep over 10 000 domains on 200 hosts (reactive against
// predictive drains, three load shapes, each feeding the forecaster) plus
// sim.TableI. The simulator and the forecaster run in no other workload.
// It is single-goroutine and deterministic, so every pass must reproduce
// the rows of the first.
const (
	fleetHosts      = 200
	fleetDomains    = 10000
	fleetMinSpeedup = 1.5 // diurnal predictive drain speedup the simulator's tests pin
)

type fleetSim struct {
	seed   int64
	rows   []sim.FleetRow
	table1 string
}

func setupFleetSim(seed int64) (instance, error) {
	rows, _ := sim.FleetSweep(seed, fleetHosts, fleetDomains)
	_, t1 := sim.TableI(seed)
	return &fleetSim{seed: seed, rows: rows, table1: t1.String()}, nil
}

func (f *fleetSim) op(tr *tracer) (*opResult, error) {
	r := &opResult{}
	r.begin()
	start := nowNs()
	rows, _ := sim.FleetSweep(f.seed, fleetHosts, fleetDomains)
	mid := nowNs()
	_, t1 := sim.TableI(f.seed)
	end := nowNs()
	r.end()
	if tr != nil {
		tr.misc.add(span{start: start, end: mid, id: -1, parent: tr.rootID, layer: layerSim})
		tr.misc.add(span{start: mid, end: end, id: -1, parent: tr.rootID, layer: layerSim, detail: 1})
		tr.simNs[0].Add(mid - start)
		tr.simNs[1].Add(end - mid)
	}
	switch {
	case !reflect.DeepEqual(rows, f.rows):
		r.mismatch = "FleetSweep rows differ from the first pass with the same seed"
	case t1.String() != f.table1:
		r.mismatch = "TableI differs from the first pass with the same seed"
	}
	for _, row := range rows {
		if row.Shape == "diurnal" && row.Policy == "predictive" && row.Speedup < fleetMinSpeedup {
			r.mismatch = fmt.Sprintf("diurnal predictive speedup %.2f below %.1f", row.Speedup, fleetMinSpeedup)
		}
	}
	return r, nil
}

func (f *fleetSim) close() {}
