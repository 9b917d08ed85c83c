package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDefinitionDescribesBenchmarkJSON checks that the embedded record
// describes exactly the workloads and metrics of the repository's
// BENCHMARK.json, and that every workload has a runner.
func TestDefinitionDescribesBenchmarkJSON(t *testing.T) {
	def, err := loadDefinition("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) == 0 || len(def.EndToEnd) == 0 || len(def.PerLayer) == 0 {
		t.Fatalf("empty definition: %+v", def)
	}
	for _, w := range def.Workloads {
		if runners[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
}

// TestDefinitionRejectsAnUndescribedMetric checks that a BENCHMARK.json
// listing a metric the record does not describe is refused.
func TestDefinitionRejectsAnUndescribedMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]any
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	b["end_to_end"] = append(b["end_to_end"].([]any), map[string]any{"name": "op_p99_ms", "unit": "ms"})
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if raw, err = json.Marshal(b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadDefinition(path); err == nil || !strings.Contains(err.Error(), "op_p99_ms") {
		t.Fatalf("loadDefinition accepted an undescribed metric (err %v)", err)
	}
}
