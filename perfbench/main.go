// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one named workload, or all of them in turn, from one process:
//
//	go run . --workload live-lan --seed 1 --seconds 20 --trace 0
//
// (bash perfbench/run.sh takes the same flags from the repository root.)
// Every input is generated from --seed. The run sets up its inputs several
// times (setup_s is the median), runs warm-up operations, then repeats the
// workload's operation for --seconds and checks every operation's output.
// With --trace 0 it prints the end-to-end metrics, measured untraced; with
// --trace 1 it alternates traced and untraced operations and prints the
// per-layer metrics of the traced ones plus the tracing overhead. Each
// metric is printed on its own line with its unit, and the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"op_rel": {"value": 9.7, "unit": "ref"}, ...}}
//
// A traced run also writes its spans (layer, start, end, parent) to
// .bench_build/spans-<workload>.tsv.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"bbmig/internal/blockdev/bcache"
	bbmetrics "bbmig/internal/metrics"
)

// endToEndNames are the metrics an untraced run prints, each for one
// operation: a migration from the call until both ends return, or one
// simulator pass. Times are given in reference units (see refTask), so
// that the machine's speed, which drifts by 10-20% over minutes on a
// shared host, cancels out; the seconds are printed on the comment lines.
// BENCHMARK.json lists the same names and units.
var endToEndNames = []metricDef{
	{"setup_s", "s"},       // median time to build the workload's inputs
	{"op_rel", "ref"},      // median operation wall time
	{"op_tail_rel", "ref"}, // highest-ranked operation time with ten beyond it
	{"cpu_rel", "ref"},     // median process CPU time per operation
	{"alloc_mb", "MB"},     // median heap allocation per operation
	{"heap_peak_mb", "MB"}, // peak heap in use while measuring
}

// refBuf is the reference task's working memory.
var refBuf []byte

// refTask runs fixed work that uses the standard library only, copying a
// 16 MiB buffer eight times, hashing half of it with SHA-256 and filling a
// map with 2^17 pseudo-random keys, and returns how long it took. It runs
// between measured operations; an operation's time divided by the mean of
// the runs right before and after it is the operation's time in reference
// units, which stays put when the whole machine slows down or speeds up.
func refTask() time.Duration {
	const size = 16 << 20
	if refBuf == nil {
		refBuf = make([]byte, 2*size)
		fillPattern(refBuf, 1)
	}
	start := time.Now()
	for i := 0; i < 8; i++ {
		copy(refBuf[size*(i%2):], refBuf[size*(1-i%2):size*(2-i%2)])
	}
	sha256.Sum256(refBuf[:size/2])
	m := make(map[uint64]uint64)
	x := uint64(1)
	for i := uint64(0); i < 1<<17; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x] += i
	}
	return time.Since(start)
}

// minOps is the least number of measured operations a run makes, however
// short --seconds is.
const minOps = 2

// instance is one set-up workload.
type instance interface {
	// op runs one operation (a migration, or a simulator pass) and checks
	// its output. tr is nil on untraced operations. A returned error means
	// the operation itself failed.
	op(tr *tracer) (*opResult, error)
	close()
}

type workloadDef struct {
	name   string
	setups int // how many times a run builds the inputs; setup_s is the median
	warmup int // untimed operations before measuring
	// linkPaced marks a workload whose operation time the modeled WAN link
	// sets rather than the machine's speed: its operation times are given
	// in seconds (one reference unit is one second), not divided by the
	// reference task.
	linkPaced bool
	setup     func(seed int64) (instance, error)
}

// fleet-sim's set-up is a full simulator pass (the reference rows), so it
// is repeated fewer times than the others' sub-second set-ups.
var workloads = []workloadDef{
	{"live-lan", 5, 2, false, setupLiveLAN},
	{"clone-evac", 5, 1, false, setupCloneEvac},
	{"im-return-wan", 5, 1, true, setupIMReturn},
	{"fleet-sim", 3, 0, false, setupFleetSim},
}

// opResult is what one operation measured.
type opResult struct {
	wall, cpu  time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration

	src, dst *bbmetrics.Report // source and destination reports (nil for the simulator)
	cache    bcache.Stats      // cache activity on the volumes the benchmark holds

	guestLat, guestLate  []float64 // microseconds
	guestOps, guestFails int64

	mismatch string // non-empty when the output check failed

	ref time.Duration // mean of the reference task's times right before and after the operation

	ru0    syscall.Rusage
	ms0    runtime.MemStats
	alloc0 uint64
	t0     time.Time
}

// begin starts measuring: call it right before the operation's call.
func (r *opResult) begin() {
	runtime.ReadMemStats(&r.ms0)
	r.alloc0 = heapAllocs()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &r.ru0) // cannot fail for RUSAGE_SELF
	r.t0 = time.Now()
}

// end stops measuring: call it once every end of the operation returned.
func (r *opResult) end() {
	r.wall = time.Since(r.t0)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	r.cpu = time.Duration(tvNs(ru.Utime) + tvNs(ru.Stime) - tvNs(r.ru0.Utime) - tvNs(r.ru0.Stime))
	r.allocBytes = heapAllocs() - r.alloc0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.gcCycles = ms.NumGC - r.ms0.NumGC
	r.gcPause = time.Duration(ms.PauseTotalNs - r.ms0.PauseTotalNs)
}

func tvNs(tv syscall.Timeval) int64 { return int64(tv.Sec)*1e9 + int64(tv.Usec)*1e3 }

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the peak of live plus not-yet-collected heap objects.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) halt() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "workload to run: live-lan, clone-evac, im-return-wan, fleet-sim or all")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 20, "how long the measured part of a run lasts")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	var defs []workloadDef
	for _, d := range workloads {
		if *name == "all" || *name == d.name {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, d := range defs {
		res, err := runWorkload(d, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", d.name, err)
			os.Exit(1)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(defs) > 1 {
				k = d.name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	names := make([]string, 0, len(total.Metrics))
	for k := range total.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-44s %14.6g %s\n", k, total.Metrics[k].Value, total.Metrics[k].Unit)
	}
	out, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runWorkload sets the workload up, warms it up, measures it and checks
// every operation.
func runWorkload(d workloadDef, seed int64, seconds time.Duration, trace bool) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var setups []float64
	var inst instance
	for i := 0; i < d.setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		in, err := d.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
	}
	defer inst.close()

	check := func(r *opResult, err error) bool {
		res.Attempted += 1 + r.guestOps
		res.Failed += r.guestFails
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: operation failed: %v\n", d.name, err)
			return false
		}
		if r.mismatch != "" {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %s\n", d.name, r.mismatch)
			return false
		}
		return true
	}
	for i := 0; i < d.warmup; i++ {
		if !check(runOp(inst, nil)) {
			return nil, fmt.Errorf("warm-up operation %d did not pass", i+1)
		}
	}
	runtime.GC()

	log := &spanLog{}
	var plain, traced []*opResult
	var layers []map[string]float64
	heap := startHeapSampler()
	lastRef := refTask()
	deadline := time.Now().Add(seconds)
	for i := 0; time.Now().Before(deadline) || len(plain) < minOps || (trace && len(traced) < minOps); i++ {
		var tr *tracer
		if trace && i%2 == 1 {
			tr = log.beginOp()
		}
		r, err := runOp(inst, tr)
		if !check(r, err) {
			break
		}
		ref := refTask()
		r.ref = (lastRef + ref) / 2
		lastRef = ref
		if tr == nil {
			plain = append(plain, r)
			continue
		}
		traced = append(traced, r)
		layers = append(layers, layerValues(tr, r))
	}
	heapPeak := heap.halt()
	if len(plain) == 0 || (trace && len(traced) == 0) {
		return nil, fmt.Errorf("no operation completed")
	}

	walls := collect(plain, func(r *opResult) float64 { return r.wall.Seconds() })
	refs := collect(plain, func(r *opResult) float64 { return r.ref.Seconds() })
	if !trace {
		tail, pct := tailOf(walls)
		fmt.Printf("# %s: %d operations measured; tails are p%.0f\n", d.name, len(walls), pct)
		fmt.Printf("# %s: op %.4g s, tail %.4g s, cpu %.4g s, reference task %.4g ms\n", d.name, median(walls), tail,
			median(collect(plain, func(r *opResult) float64 { return r.cpu.Seconds() })), median(refs)*1e3)
		rel := collect(plain, func(r *opResult) float64 {
			if d.linkPaced {
				return r.wall.Seconds()
			}
			return r.wall.Seconds() / r.ref.Seconds()
		})
		tailRel, _ := tailOf(rel)
		values := map[string]float64{
			"setup_s":      median(setups),
			"op_rel":       median(rel),
			"op_tail_rel":  tailRel,
			"cpu_rel":      median(collect(plain, func(r *opResult) float64 { return r.cpu.Seconds() / r.ref.Seconds() })),
			"alloc_mb":     median(collect(plain, func(r *opResult) float64 { return float64(r.allocBytes) / (1 << 20) })),
			"heap_peak_mb": float64(heapPeak) / (1 << 20),
		}
		for _, m := range endToEndNames {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
		}
		return res, nil
	}

	for _, name := range perLayerNames {
		var vals []float64
		for _, m := range layers {
			vals = append(vals, m[name.name])
		}
		res.Metrics[name.name] = metric{mean(vals), name.unit}
	}
	var lat []float64
	for _, r := range traced {
		lat = append(lat, r.guestLat...)
	}
	if len(lat) > 0 {
		tail, _ := tailOf(lat)
		res.Metrics["guest.io_p50_us"] = metric{median(lat), "us"}
		res.Metrics["guest.io_tail_us"] = metric{tail, "us"}
	}
	tracedWall := median(collect(traced, func(r *opResult) float64 { return r.wall.Seconds() }))
	res.Metrics["trace.overhead_pct"] = metric{(tracedWall/median(walls) - 1) * 100, "%"}
	res.Metrics["bench.ref_ms"] = metric{median(refs) * 1e3, "ms"}
	fmt.Printf("# %s: %d traced and %d untraced operations\n", d.name, len(traced), len(plain))
	path := filepath.Join(".bench_build", "spans-"+d.name+".tsv")
	if err := log.writeSpans(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

func runOp(inst instance, tr *tracer) (*opResult, error) {
	r, err := inst.op(tr)
	if r == nil {
		r = &opResult{}
	}
	if tr != nil {
		tr.endOp()
	}
	return r, err
}

func collect(rs []*opResult, f func(*opResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tailOf returns the highest-ranked sample with at least ten samples
// beyond it, and the percentile that sample sits at. With ten samples or
// fewer there is no such sample and the maximum stands in.
func tailOf(v []float64) (float64, float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		return s[len(s)-1], 100
	}
	return s[i], math.Floor(100 * float64(i+1) / float64(len(s)))
}
