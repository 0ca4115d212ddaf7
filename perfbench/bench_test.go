package main

import (
	"encoding/json"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics asserts that a result is correct and carries exactly
// the named metrics, each with its declared unit.
func checkMetrics(t *testing.T, res result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("fail_ratio %d/%d, correct %v", res.Failed, res.Attempted, res.Correct)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
}

// TestEveryWorkloadShort runs one episode of every workload, untraced
// and traced, and checks every named metric is emitted with its unit
// and no episode fails.
func TestEveryWorkloadShort(t *testing.T) {
	s := loadSpec(t)
	e2e := map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range s.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("workload %s missing from the program", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			res := untracedRun(w, 7, 0)
			checkMetrics(t, res, e2e)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			res, err := tracedRun(w, 7, 0, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, layer)
		})
	}
}

// TestReconcileCatchesALostFrame checks the conservation check is not
// vacuous: a frame offered but neither delivered nor counted dropped
// fails it.
func TestReconcileCatchesALostFrame(t *testing.T) {
	e := newEnv(1, nil)
	ok := counts{NICSent: 10, Delivered: 10, Hops: 20, QueueEnq: 20, QueueDeq: 20, LinkTx: 30}
	if bad := e.reconcile(ok, -1); len(bad) != 0 {
		t.Fatalf("balanced counts flagged: %v", bad)
	}
	lost := ok
	lost.Delivered = 9
	if bad := e.reconcile(lost, -1); len(bad) == 0 {
		t.Fatal("a missing frame was not flagged")
	}
	ttl := ok
	ttl.QueueEnq, ttl.QueueDeq, ttl.LinkTx = 19, 19, 29
	if bad := e.reconcile(ttl, -1); len(bad) == 0 {
		t.Fatal("a hop that was never enqueued was not flagged")
	}
}
