// Command perfbench is the repository's benchmark. It runs one of the
// workloads defined in workloads.go for a time budget, checks what the
// simulation computed, and prints its metrics:
//
//	go run ./perfbench --workload fl-cia --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones (see BENCHMARK.json). The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the lines
// before it give the run's provenance and each metric in text. The
// command exits 1 when an output check fails. perfbench/run.sh builds
// and runs it inside the checkout.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: fl-cia, gl-cia or fl-sampled-socket")
	seed := flag.Uint64("seed", 1, "workload seed: generates the dataset and drives the simulation")
	seconds := flag.Float64("seconds", 30, "time budget for the timed rounds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end ones")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload <fl-cia|gl-cia|fl-sampled-socket> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	if !run(os.Stdout, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, digestDir) {
		os.Exit(1)
	}
}

// digestDir remembers each build's output digest per workload and seed,
// inside the checkout the benchmark is built in.
const digestDir = ".bench_build/perfbench-digests"

// run measures the workload, prints provenance, metrics and the result
// line, and reports whether every output check passed. Tests pass an
// empty state, which skips the comparison with earlier runs.
func run(out io.Writer, w *workload, seed uint64, budget time.Duration, trace bool, state string) bool {
	build := buildDigest()
	fmt.Fprintf(out, "perfbench workload=%s seed=%d trace=%t\n", w.name, seed, trace)
	o, err := measure(w, seed, budget, trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		// An errored run counts as one attempt that failed.
		o = &outcome{attempted: 1, failed: 1, metrics: map[string]float64{}}
	} else if state != "" {
		if err := checkDigest(state, build, w.name, seed, o.digest); err != nil {
			o.problems = append(o.problems, err.Error())
			o.correct = false
		}
	}
	if !o.correct {
		// A run whose outputs cannot be trusted delivered nothing.
		o.failed = o.attempted
		if _, ok := o.metrics["delivered_frac"]; ok {
			o.metrics["delivered_frac"] = 0
		}
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	printProvenance(out, w, seed, build, o)

	units := endToEndUnits
	if trace {
		units = layerUnits
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.correct, o.attempted, o.failed, make(map[string]metric)}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res.Metrics[n] = metric{o.metrics[n], units[n]}
		fmt.Fprintf(out, "%-34s %14.6g %s\n", n, o.metrics[n], units[n])
	}
	if !trace {
		fmt.Fprintf(out, "timings over %d rounds: %d episodes of %d rounds\n", o.rounds, o.episodes, w.rounds())
	} else {
		fmt.Fprintf(out, "per-layer metrics from %d traced of %d rounds (%d episodes)\n", o.tracedRounds, o.rounds, o.episodes)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Fprintln(out, string(b))
	return o.correct
}

// printProvenance prints where and on what the run was measured.
func printProvenance(out io.Writer, w *workload, seed uint64, build string, o *outcome) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	p := map[string]any{
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "cpu": cpuModel(),
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "build": build,
		"workload": w.name, "seed": seed, "rounds_per_episode": w.rounds(),
		"rounds": o.rounds, "episodes": o.episodes, "digest": o.digest,
	}
	b, _ := json.Marshal(p) // a map of strings and numbers always marshals
	fmt.Fprintf(out, "provenance %s\n", b)
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// buildDigest identifies the running binary by a hash of its file.
func buildDigest() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6])
}

// checkDigest compares the run's output digest with the one an earlier
// run of the same build, workload and seed recorded under dir, and
// records it when there is none: one seed and commit must always
// compute the same outputs.
func checkDigest(dir, build, workload string, seed uint64, digest string) error {
	if build == "unknown" {
		return nil
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d", build, workload, seed))
	prev, err := os.ReadFile(path)
	if err == nil {
		if got := strings.TrimSpace(string(prev)); got != digest {
			return fmt.Errorf("output digest %s differs from %s of an earlier run of this build and seed", digest, got)
		}
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("read digest record: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("record digest: %w", err)
	}
	if err := os.WriteFile(path, []byte(digest+"\n"), 0o644); err != nil {
		return fmt.Errorf("record digest: %w", err)
	}
	return nil
}
