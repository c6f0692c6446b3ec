package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks
// the program against.
type benchmarkFile struct {
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

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var listed, have []string
	for _, w := range f.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(listed, have) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the program has %v", listed, have)
	}
}

// TestSmoke runs every workload at its small size, untraced and traced,
// on two seeds. Every repetition must match its reference output, the
// traced and untraced runs must repeat each other's steps and msgs
// (a mismatch fails the repetition), and every metric BENCHMARK.json
// names must be emitted with its unit.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, seed := range []int64{7, 8} {
			for _, trace := range []bool{false, true} {
				res, err := bench(w, config{seed: seed, trace: trace, small: true})
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", w.name, seed, trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1+minReps {
					t.Fatalf("%s seed %d trace %v: correct %v, %d of %d repetitions failed",
						w.name, seed, trace, res.Correct, res.Failed, res.Attempted)
				}
				want := f.EndToEnd
				if trace {
					want = f.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace %v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s trace %v: metric %s is %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
					}
				}
			}
		}
	}
}
