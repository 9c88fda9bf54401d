package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/collablearn/ciarec/internal/evalx"
)

const mib = 1 << 20

// endToEndUnits and layerUnits name every metric the benchmark reports
// (an untraced run reports the first set, a traced run the second) with
// its unit. BENCHMARK.json declares the same names and units.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"updates_per_s":    "1/s",
	"round_ms_p50":     "ms",
	"round_ms_p90":     "ms",
	"rss_peak_mb":      "MB",
	"heap_retained_mb": "MB",
	"max_aac":          "fraction",
	"utility_hr":       "fraction",
	"delivered_frac":   "fraction",
}

var layerUnits = map[string]string{
	"attack.score_ms":                 "ms",
	"attack.senders_scored":           "count",
	"attack.accuracy_ms":              "ms",
	"attack.observe_ms":               "ms",
	"attack.observe_calls":            "count",
	"attack.states_mb":                "MB",
	"model.train_busy_ms":             "ms",
	"model.updates":                   "count",
	"model.eval_ms":                   "ms",
	"model.eval_calls":                "1/round",
	"fed.round_ms":                    "ms",
	"fed.aggregate_ms":                "ms",
	"fed.encode_ms":                   "ms",
	"fed.broadcast_busy_ms":           "ms",
	"fed.send_busy_ms":                "ms",
	"gossip.round_ms":                 "ms",
	"gossip.encode_busy_ms":           "ms",
	"gossip.aggregate_busy_ms":        "ms",
	"gossip.send_busy_ms":             "ms",
	"transport.wire_mb_per_round":     "MB",
	"transport.raw_mb_per_round":      "MB",
	"transport.compress_ratio":        "ratio",
	"transport.messages_per_round":    "count",
	"transport.round_trips_per_round": "count",
	"transport.rpc_us":                "us",
	"transport.retries":               "count",
	"transport.gave_up":               "count",
	"param.pool_hit_ratio":            "fraction",
	"parx.idle_frac":                  "fraction",
	"runtime.alloc_mb_per_round":      "MB",
	"runtime.gc_cycles":               "1/round",
	"runtime.gc_cpu_frac":             "fraction",
	"dataset.build_s":                 "s",
	"evalx.truth_s":                   "s",
	"fed.new_s":                       "s",
	"gossip.new_s":                    "s",
	"attack.new_s":                    "s",
	"transport.new_s":                 "s",
	"obs.spans_dropped":               "count",
	"obs.untraced_frac":               "fraction",
	"obs.trace_overhead_frac":         "fraction",
}

// outcome is the result of one benchmark run of a workload.
type outcome struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
	problems          []string // failed output checks
	digest            string
	rounds, episodes  int
	tracedRounds      int
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct{ allocBytes, gcCycles, gcCPU, totalCPU float64 }

var runtimeNames = []string{
	"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return float64(s[i].Value.Uint64())
		}
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a *runtimeSample) add(b runtimeSample) {
	a.allocBytes += b.allocBytes
	a.gcCycles += b.gcCycles
	a.gcCPU += b.gcCPU
	a.totalCPU += b.totalCPU
}

// datasetsPerRun is how many inputs one run derives from its seed. A
// run cycles through them, one episode each, so its attack and utility
// figures are means over several datasets and its timings are not tied
// to one dataset's shape. Tests run with workload.datasets set lower.
const datasetsPerRun = 6

// subSeed is the seed of a run's j-th dataset and simulation.
func subSeed(seed uint64, j int) uint64 { return seed*1000 + uint64(j) }

// episodeResult is what a run keeps of one episode.
type episodeResult struct {
	setup             setupTimes
	roundDur          []time.Duration
	timed             time.Duration
	updates           int64
	attempted, failed int64
	runtime           runtimeSample // over the timed rounds
	heapMB            float64
	digest            string
	finite            bool
	attack            bool
	maxAAC, random    float64
	utility           []float64
}

// runEpisode builds one episode, times its rounds, reads its outputs
// and, when traced, adds its spans to layers.
func runEpisode(w *workload, seed uint64, traced bool, layers *layerSamples) (_ *episodeResult, err error) {
	ep, err := newEpisode(w, seed, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer func() {
		if cerr := ep.tr.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s: close transport: %w", w.name, cerr)
		}
	}()
	r := &episodeResult{setup: ep.setup}
	before := readRuntime()
	for i := 0; i < w.rounds(); i++ {
		r.timed += ep.runRound()
	}
	r.runtime = readRuntime().sub(before)
	r.roundDur = ep.roundDur

	// Live heap while the simulation and attack are still held.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.heapMB = float64(mem.HeapAlloc) / mib

	r.updates = ep.updates()
	r.attempted, r.failed = ep.deliveries()
	r.digest, r.finite = ep.digest()
	r.utility = ep.utility
	if ep.adv != nil {
		r.attack = true
		r.maxAAC, _ = ep.adv.rec.MaxAAC()
		r.random = evalx.RandomBound(ep.k, ep.d.NumUsers)
	}
	if traced {
		layers.collect(ep)
	}
	return r, nil
}

// measure runs episodes of w, cycling through the datasets derived
// from seed, until their rounds have taken budget and every dataset ran
// once. An untraced run reports the end-to-end metrics. A traced run
// alternates untraced and traced cycles, at least one of each, and
// reports the per-layer metrics: layer spans from the traced episodes,
// runtime counters and the tracing overhead baseline from the untraced
// ones.
func measure(w *workload, seed uint64, budget time.Duration, trace bool) (*outcome, error) {
	o := &outcome{metrics: make(map[string]float64)}
	var (
		setups         []setupTimes
		roundMS        []float64 // every untraced round
		heap           []float64
		aacs, utils    []float64
		digests        []string // per dataset, from its first episode
		updU, updT     int64
		timedU, timedT time.Duration
		rt             runtimeSample
		rtRounds       int
		layers         = newLayerSamples()
	)
	problem := func(format string, args ...any) {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
	datasets := w.datasets
	if datasets == 0 {
		datasets = datasetsPerRun
	}
	minEpisodes := datasets
	if trace {
		minEpisodes *= 2
	}
	for i := 0; i < minEpisodes || timedU+timedT < budget; i++ {
		j, cycle := i%datasets, i/datasets
		traced := trace && cycle%2 == 1
		r, err := runEpisode(w, subSeed(seed, j), traced, layers)
		if err != nil {
			return nil, err
		}
		// Collect the finished episode before the next one is built, so
		// the next one reuses its memory.
		runtime.GC()
		setups = append(setups, r.setup)
		heap = append(heap, r.heapMB)
		o.rounds += len(r.roundDur)
		o.episodes++
		o.attempted += r.attempted
		o.failed += r.failed
		if traced {
			updT += r.updates
			timedT += r.timed
			o.tracedRounds += len(r.roundDur)
		} else {
			updU += r.updates
			timedU += r.timed
			rt.add(r.runtime)
			rtRounds += len(r.roundDur)
			for _, d := range r.roundDur {
				roundMS = append(roundMS, ms(d))
			}
		}

		if !r.finite {
			problem("dataset %d: non-finite final parameters", j)
		}
		for _, u := range r.utility {
			if !(u >= 0 && u <= 1) {
				problem("dataset %d: utility %v outside [0, 1]", j, u)
			}
		}
		if cycle > 0 {
			if r.digest != digests[j] {
				problem("dataset %d: output digest %s differs from its first episode's %s", j, r.digest, digests[j])
			}
			continue
		}
		digests = append(digests, r.digest)
		if len(r.utility) == 0 {
			problem("dataset %d: no utility measured", j)
		} else {
			utils = append(utils, r.utility[len(r.utility)-1])
		}
		if r.attack {
			if !(r.maxAAC > r.random) {
				problem("dataset %d: MaxAAC %.4f not above the random bound %.4f", j, r.maxAAC, r.random)
			}
			aacs = append(aacs, r.maxAAC)
		}
	}
	o.correct = len(o.problems) == 0
	sum := sha256.Sum256([]byte(strings.Join(digests, ",")))
	o.digest = hex.EncodeToString(sum[:8])

	if !trace {
		var setupS []float64
		for _, s := range setups {
			setupS = append(setupS, s.total.Seconds())
		}
		o.metrics["setup_s"] = median(setupS)
		o.metrics["updates_per_s"] = ratio(float64(updU), timedU.Seconds())
		o.metrics["round_ms_p50"] = quantile(roundMS, 0.5)
		o.metrics["round_ms_p90"] = quantile(roundMS, 0.9)
		o.metrics["rss_peak_mb"] = peakRSSMB()
		o.metrics["heap_retained_mb"] = median(heap)
		o.metrics["max_aac"] = 1 // reported when no adversary runs
		if len(aacs) > 0 {
			o.metrics["max_aac"] = mean(aacs)
		}
		o.metrics["utility_hr"] = mean(utils)
		o.metrics["delivered_frac"] = 1 - ratio(float64(o.failed), float64(o.attempted))
		return o, nil
	}

	layers.metrics(o.metrics)
	setupMedian := func(get func(setupTimes) time.Duration) float64 {
		var xs []float64
		for _, s := range setups {
			xs = append(xs, get(s).Seconds())
		}
		return median(xs)
	}
	o.metrics["dataset.build_s"] = setupMedian(func(s setupTimes) time.Duration { return s.dataset })
	o.metrics["evalx.truth_s"] = setupMedian(func(s setupTimes) time.Duration { return s.truth })
	o.metrics["attack.new_s"] = setupMedian(func(s setupTimes) time.Duration { return s.attack })
	o.metrics["transport.new_s"] = setupMedian(func(s setupTimes) time.Duration { return s.transport })
	simNew := setupMedian(func(s setupTimes) time.Duration { return s.sim })
	if w.gossip {
		o.metrics["gossip.new_s"], o.metrics["fed.new_s"] = simNew, 0
	} else {
		o.metrics["fed.new_s"], o.metrics["gossip.new_s"] = simNew, 0
	}
	o.metrics["runtime.alloc_mb_per_round"] = perRound(rt.allocBytes/mib, rtRounds)
	o.metrics["runtime.gc_cycles"] = perRound(rt.gcCycles, rtRounds)
	o.metrics["runtime.gc_cpu_frac"] = ratio(rt.gcCPU, rt.totalCPU)
	untracedRate := ratio(float64(updU), timedU.Seconds())
	o.metrics["obs.trace_overhead_frac"] = 1 - ratio(ratio(float64(updT), timedT.Seconds()), untracedRate)
	return o, nil
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// median returns the middle value of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB returns the process's peak resident set (VmHWM), or 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb * 1024 / mib
	}
	return 0
}
