package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestScenarioMetricsOutRoundTrip pins the scenario's metrics_out dump
// to RunResult.Metrics, the only record of a run's transport and
// resilience counters: one eventful run (churn + Byzantine + trimmed
// mean) must dump every snapshot sample, value for value.
func TestScenarioMetricsOutRoundTrip(t *testing.T) {
	sc := ChurnByzScenario()
	sc.MetricsOut = filepath.Join(t.TempDir(), "metrics.json")
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("RunResult.Metrics not populated")
	}
	if resilienceLine(AttackRow{Metrics: res.Metrics}) == "" {
		t.Fatal("churn-byz scenario produced no resilience activity")
	}
	if res.Metrics["transport_messages_total"] == 0 {
		t.Fatalf("run recorded no transport traffic: %v", res.Metrics)
	}

	blob, err := os.ReadFile(sc.MetricsOut)
	if err != nil {
		t.Fatalf("metrics_out dump not written: %v", err)
	}
	dumped := map[string]float64{}
	if err := json.Unmarshal(blob, &dumped); err != nil {
		t.Fatalf("metrics_out dump is not valid JSON: %v", err)
	}
	if len(dumped) != len(res.Metrics) {
		t.Errorf("dump has %d samples, snapshot %d", len(dumped), len(res.Metrics))
	}
	for name, v := range res.Metrics {
		if dumped[name] != v {
			t.Errorf("%s: dumped %v != snapshot %v", name, dumped[name], v)
		}
	}
}
