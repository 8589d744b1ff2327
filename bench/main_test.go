package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json, which names the
// workloads and metrics for anyone comparing commits, in step with what
// the benchmark reports.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	def, err := loadBenchmarkDef("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	var e2e []metricDef
	for _, m := range def.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 {
			t.Errorf("%s: bound %v is not positive", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(def.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's per-layer metrics")
	}
}

// TestFlagsTakeDoubleDashForm checks the invocation scripts use:
// double-dash flags, each with a separate value.
func TestFlagsTakeDoubleDashForm(t *testing.T) {
	o, err := parseFlags(strings.Fields("--workload makespan --seed 9 --seconds 12 --trace 1"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "makespan" || o.seed != 9 || o.seconds != 12 || o.trace != 1 {
		t.Fatalf("parsed %+v", o)
	}
	for _, bad := range []string{
		"--workload nope", "--workload all --trace 2", "--workload all --seconds 0", "--seed 1",
	} {
		if _, err := parseFlags(strings.Fields(bad), io.Discard); err == nil {
			t.Errorf("%q: accepted", bad)
		}
	}
}
