package sim

import (
	"reflect"
	"testing"
	"time"
)

// fleetRowsByArm indexes sweep rows by "shape/policy".
func fleetRowsByArm(t *testing.T, rows []FleetRow) map[string]FleetRow {
	t.Helper()
	m := make(map[string]FleetRow, len(rows))
	for _, r := range rows {
		m[r.Shape+"/"+r.Policy] = r
	}
	if len(m) != 6 {
		t.Fatalf("sweep produced %d distinct arms, want 6: %+v", len(m), rows)
	}
	return m
}

// TestFleetSweepDeterministic pins the regression contract: the same seed
// reproduces every row bit-for-bit — makespans, downtimes, retransmission,
// speedups — and a different seed actually changes the fleet.
func TestFleetSweepDeterministic(t *testing.T) {
	rows1, _ := FleetSweep(7, 40, 2000)
	rows2, _ := FleetSweep(7, 40, 2000)
	if !reflect.DeepEqual(rows1, rows2) {
		t.Fatalf("same seed, different rows:\n%+v\n%+v", rows1, rows2)
	}
	rows3, _ := FleetSweep(8, 40, 2000)
	if reflect.DeepEqual(rows1, rows3) {
		t.Fatalf("different seeds produced identical rows")
	}
}

// TestFleetPredictiveAcceptance pins the sweep's headline: on the diurnal
// shape, trough-aware scheduling beats reactive by at least 1.5x on drain
// makespan while collapsing downtime and interference, and the constant
// control arm ties.
func TestFleetPredictiveAcceptance(t *testing.T) {
	rows, _ := FleetSweep(1, 40, 2000)
	arm := fleetRowsByArm(t, rows)

	re, pr := arm["diurnal/reactive"], arm["diurnal/predictive"]
	if pr.Speedup < 1.5 {
		t.Errorf("diurnal predictive speedup = %.2f, want >= 1.5 (reactive %v vs predictive %v)",
			pr.Speedup, re.Makespan, pr.Makespan)
	}
	if pr.MeanDowntime*5 > re.MeanDowntime {
		t.Errorf("predictive mean downtime %v not under a fifth of reactive %v",
			pr.MeanDowntime, re.MeanDowntime)
	}
	if pr.HighStarts*4 > re.HighStarts {
		t.Errorf("predictive high starts %d not under a quarter of reactive %d",
			pr.HighStarts, re.HighStarts)
	}
	if pr.RetransBlocks*2 > re.RetransBlocks {
		t.Errorf("predictive retransmission %d blocks not under half of reactive %d",
			pr.RetransBlocks, re.RetransBlocks)
	}

	// The constant shape has no troughs: the policies must tie (the sweep
	// would be rigged if prediction "won" where there is nothing to predict).
	if s := arm["constant/predictive"].Speedup; s < 0.9 || s > 1.1 {
		t.Errorf("constant-shape speedup = %.2f, want ~1.0", s)
	}

	// Every arm migrated the full drained population.
	for name, r := range arm {
		if want := r.Drained * (r.Domains / r.Hosts); r.Migrations != want {
			t.Errorf("%s: %d migrations, want %d", name, r.Migrations, want)
		}
	}
}

// TestFleetSweepAtScale is the scale acceptance: the full 10 000-domain,
// 200-host sweep — six arms, three of them feeding the 2 000 forecast
// models of the drained hosts' domains from streaming heartbeat counters —
// completes well inside a 60 s wall budget, and the headline result holds
// at scale.
func TestFleetSweepAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-domain sweep skipped in -short mode")
	}
	start := time.Now()
	rows, tbl := FleetSweep(1, 200, 10000)
	wall := time.Since(start)
	if wall > 60*time.Second {
		t.Fatalf("10k-domain sweep took %v, budget 60s", wall)
	}
	arm := fleetRowsByArm(t, rows)
	if got := arm["diurnal/reactive"].Migrations; got != 2000 {
		t.Fatalf("drained %d domains, want 2000 (40 hosts x 50 domains)", got)
	}
	if s := arm["diurnal/predictive"].Speedup; s < 1.5 {
		t.Fatalf("diurnal predictive speedup at scale = %.2f, want >= 1.5\n%s", s, tbl)
	}
}

// TestFleetSweepPinned pins every row of the CI-shape sweep to the
// nanosecond, so a change to how the simulator or the forecaster computes
// (rather than what it computes) must leave the output bit-identical.
func TestFleetSweepPinned(t *testing.T) {
	type want struct {
		makespan, meanDur, meanDown, maxDown time.Duration
		highStarts                           int
		retrans                              int64
		speedup                              float64
	}
	constant := want{1127665324094, 82995093625, 421415227, 861655247, 0, 26336528, 0}
	constantPr := constant
	constantPr.speedup = 1
	wants := map[string]want{
		"diurnal/reactive":    {1600792197990, 113349528665, 8923333302, 35558690325, 202, 64490838, 0},
		"diurnal/predictive":  {876756448198, 62840986259, 38430619, 3352302656, 1, 1003621, 1.8258117191839451},
		"constant/reactive":   constant,
		"constant/predictive": constantPr,
		"bursty/reactive":     {1023532866976, 74274873131, 1162427948, 38154617273, 44, 15375559, 0},
		"bursty/predictive":   {1117236857655, 75038827730, 1228472973, 38043270415, 47, 16335820, 0.9161288047051384},
	}
	rows, _ := FleetSweep(1, 40, 2000)
	for name, r := range fleetRowsByArm(t, rows) {
		got := want{r.Makespan, r.MeanDuration, r.MeanDowntime, r.MaxDowntime, r.HighStarts, r.RetransBlocks, r.Speedup}
		if got != wants[name] {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, wants[name])
		}
	}
}

// TestWarmupModelsDrainedOnly pins which forecast models warmup builds:
// exactly those of the domains on the drained hosts — the population
// RunFleet puts in pending — each fed every warmup heartbeat, and no
// others.
func TestWarmupModelsDrainedOnly(t *testing.T) {
	p := FleetParams{Seed: 1, Hosts: 40, Domains: 2000, Predictive: true}.withFleetDefaults()
	doms := newFleetDomains(p)
	const drained = 8
	warmupModels(p, doms, drained)
	beats := int(time.Duration(p.WarmupPeriods) * p.Period / p.Heartbeat)
	built := 0
	for i, d := range doms {
		if want := i%p.Hosts < drained; (d.mdl != nil) != want {
			t.Fatalf("domain %d (host %d): model built = %v, want %v", i, i%p.Hosts, d.mdl != nil, want)
		}
		if d.mdl == nil {
			continue
		}
		built++
		if n := d.mdl.Samples(); n != beats-1 { // the first beat only anchors the counter
			t.Fatalf("domain %d: model holds %d samples, want %d", i, n, beats-1)
		}
	}
	if want := drained * p.Domains / p.Hosts; built != want {
		t.Fatalf("warmup built %d models, want %d", built, want)
	}
}
