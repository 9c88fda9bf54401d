package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/collablearn/ciarec/internal/experiments"
	"github.com/collablearn/ciarec/internal/gossip"
)

// TestEpisodesMatchExperiments pins that the benchmark times the code
// path ciabench and ciarec.Run use: at a tiny size its fl-cia and
// gl-cia episodes reproduce the attack series and utility curve of
// experiments.RunFLCIA / RunGLCIA bit for bit.
func TestEpisodesMatchExperiments(t *testing.T) {
	const seed = 7
	for _, name := range []string{"fl-cia", "gl-cia"} {
		t.Run(name, func(t *testing.T) {
			w, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			w = w.tiny()
			w.evalEvery = 1 // the runners measure utility every round
			// Equality needs no attack horizon: a short gossip run will do.
			w.spec.GLRounds = 20
			ep, err := newEpisode(w, seed, false)
			if err != nil {
				t.Fatal(err)
			}
			defer ep.tr.Close()
			for r := 0; r < w.rounds(); r++ {
				ep.runRound()
			}

			d, err := w.makeData(w.users, seed)
			if err != nil {
				t.Fatal(err)
			}
			var res experiments.RunResult
			if w.gossip {
				res, err = experiments.RunGLCIA(experiments.GLOpts{
					Data: d, Family: "gmf", Variant: gossip.RandGossip,
					Spec: ep.spec, Utility: experiments.UtilityHR,
				})
			} else {
				res, err = experiments.RunFLCIA(experiments.FLOpts{
					Data: d, Family: "gmf", Spec: ep.spec, Utility: experiments.UtilityHR,
				})
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := ep.aacSeries(); !reflect.DeepEqual(got, res.Attack.Series) {
				t.Errorf("AAC series\n got %v\nwant %v", got, res.Attack.Series)
			}
			if !reflect.DeepEqual(ep.utility, res.Utility) {
				t.Errorf("utility\n got %v\nwant %v", ep.utility, res.Utility)
			}
		})
	}
}

// declared is a metric as BENCHMARK.json declares it.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) (endToEnd, perLayer []declared) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that the result line carries exactly the metrics
// BENCHMARK.json declares, with their units, that the output checks
// pass and that tracing dropped no span. It checks no timing.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := readDeclared(t)
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			if !run(&out, w.tiny(), 3, time.Millisecond, trace, "") {
				t.Errorf("%s trace=%t: output checks failed:\n%s", w.name, trace, out.String())
			}
			var last string
			for sc := bufio.NewScanner(&out); sc.Scan(); {
				last = sc.Text()
			}
			var res struct {
				Correct   *bool  `json:"correct"`
				Attempted *int64 `json:"attempted"`
				Failed    *int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(last))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%t: result line %q: %v", w.name, trace, last, err)
			}
			if res.Correct == nil || res.Attempted == nil || res.Failed == nil || *res.Attempted < 1 {
				t.Errorf("%s trace=%t: incomplete result line %q", w.name, trace, last)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Value == nil {
					t.Errorf("%s trace=%t: metric %s missing", w.name, trace, d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("%s trace=%t: metric %s in %q, BENCHMARK.json says %q", w.name, trace, d.Name, m.Unit, d.Unit)
				}
			}
			if m, ok := res.Metrics["obs.spans_dropped"]; trace && ok && *m.Value != 0 {
				t.Errorf("%s: %v spans dropped", w.name, *m.Value)
			}
		}
	}
}

// tiny returns a copy of w shrunk for tests: a fifth of the users (at
// least 40), 4 fed rounds and one dataset per run, keeping the
// protocol, transport and attack.
func (w *workload) tiny() *workload {
	t := *w
	t.users = max(w.users/5, 40)
	t.datasets = 1
	if w.clientFraction > 0 {
		t.clientFraction = 8.0 / float64(t.users)
	}
	// Gossip keeps its horizon: a gossip adversary sees about one model
	// per round and needs it to beat the random bound.
	t.spec.Rounds = 4
	if t.evalEvery > 1 {
		t.evalEvery = 2
	}
	return &t
}
