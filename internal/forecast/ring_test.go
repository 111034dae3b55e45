package forecast_test

import (
	"sync"
	"testing"
	"time"

	"bbmig/internal/forecast"
)

// modelView is every query answer a scheduler reads off a model, compared
// bit-for-bit across models that saw the same observations.
type modelView struct {
	period      time.Duration
	periodic    bool
	periodicity float64
	rates       [5]float64
	troughAt    time.Duration
	troughRate  float64
	convergence forecast.Convergence
}

func viewOf(m *forecast.Model, now time.Duration) modelView {
	var v modelView
	v.period, v.periodic = m.Period()
	v.periodicity = m.Periodicity()
	for k := range v.rates {
		v.rates[k] = m.RateAt(now + time.Duration(k)*diurnalPeriod/7)
	}
	v.troughAt, v.troughRate = m.NextTrough(now, 2*diurnalPeriod)
	v.convergence = m.PredictConvergence(forecast.MigrationParams{
		StartAt: now, Blocks: 20000, HotBlocks: 8000, BlocksPerSec: 400,
		MaxIterations: 8, DirtyThreshold: 64,
	})
	return v
}

// TestRingRotationInvisible pins that rotating the sample ring into
// chronological order on refresh changes no answer: models fed the same
// wrapping diurnal counter stream agree bit-for-bit whether they were
// queried after every observation (one-slot rotations), at irregular
// intervals (multi-slot rotations) or only at the end (one rotation from
// a mid-ring start).
func TestRingRotationInvisible(t *testing.T) {
	const beats = 641 // 640 samples: the 256-sample ring wraps 2.5 times
	every := forecast.NewModel(forecast.Config{})
	sparse := forecast.NewModel(forecast.Config{})
	once := forecast.NewModel(forecast.Config{})
	var at time.Duration
	for b := 0; b < beats; b++ {
		at = time.Duration(b) * diurnalHb
		count := int64(squareIntegral(at, diurnalPeriod, diurnalHigh, diurnalLow, 0.5))
		for _, m := range []*forecast.Model{every, sparse, once} {
			m.ObserveCount(at, count)
		}
		every.NextTrough(at, diurnalPeriod)
		if b%37 == 0 {
			sparse.Period()
		}
	}
	if once.Samples() != forecast.DefaultMaxSamples {
		t.Fatalf("ring holds %d samples, want a full %d", once.Samples(), forecast.DefaultMaxSamples)
	}
	want := viewOf(once, at)
	if !want.periodic {
		t.Fatal("no period detected on a wrapped diurnal ring")
	}
	if got := viewOf(every, at); got != want {
		t.Fatalf("queried after every beat:\n got %+v\nwant %+v", got, want)
	}
	if got := viewOf(sparse, at); got != want {
		t.Fatalf("queried every 37 beats:\n got %+v\nwant %+v", got, want)
	}
}

// TestRingRefreshConcurrent runs observations and trough queries on one
// model at once: a refresh now rewrites the ring, so under -race this
// pins that it does so only under the model's lock.
func TestRingRefreshConcurrent(t *testing.T) {
	m := forecast.NewModel(forecast.Config{})
	const beats = 600
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < beats; b++ {
			at := time.Duration(b) * diurnalHb
			m.ObserveCount(at, int64(squareIntegral(at, diurnalPeriod, diurnalHigh, diurnalLow, 0.5)))
		}
	}()
	for q := 0; q < beats; q++ {
		m.NextTrough(time.Duration(q)*diurnalHb, diurnalPeriod)
	}
	wg.Wait()
	if p, ok := m.Period(); !ok || p < diurnalPeriod-2*time.Minute || p > diurnalPeriod+2*time.Minute {
		t.Fatalf("period after concurrent refreshes = %v (%v), want ~%v", p, ok, diurnalPeriod)
	}
}
