package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestGenerationIsDeterministicPerSeed(t *testing.T) {
	for name, gen := range map[string]func(int64) any{
		"s16-long":      func(s int64) any { return genS16Long(s, 1) },
		"c62x-observed": func(s int64) any { return genC62x(s, 1) },
		"batch": func(s int64) any {
			ks, order := genBatch(s, 1)
			return []any{ks, order}
		},
	} {
		if !reflect.DeepEqual(gen(3), gen(3)) {
			t.Errorf("%s: seed 3 generated two different job sets", name)
		}
		if reflect.DeepEqual(gen(3), gen(4)) {
			t.Errorf("%s: seeds 3 and 4 generated the same job set", name)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := sortedKeys(workloads); !reflect.DeepEqual(got, names) {
		t.Errorf("workloads: benchmark runs %v, BENCHMARK.json lists %v", got, names)
	}
	for _, c := range []struct {
		what string
		defs []metricDef
		file []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, bf.EndToEnd}, {"per_layer", perLayer, bf.PerLayer}} {
		var file []metricDef
		for _, m := range c.file {
			file = append(file, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(c.defs, file) {
			t.Errorf("%s: benchmark prints %v, BENCHMARK.json lists %v", c.what, c.defs, file)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that no run fails and that the JSON line carries exactly the
// metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	want := map[bool][]string{}
	for _, m := range bf.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range bf.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	work := t.TempDir()
	for _, name := range sortedKeys(workloads) {
		if name == "batch-generated" && testing.Short() {
			t.Logf("skipping %s in short mode: it builds Go runners", name)
			continue
		}
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 0.01, trace: traced,
				scale: 0.02, setups: 1, workers: 2, workDir: work}
			res, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			var out bytes.Buffer
			report(&out, cfg, res)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", name, traced, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d (failed_frac must be 0)\n%s",
					name, traced, line.Correct, line.Attempted, line.Failed, out.String())
			}
			got := sortedKeys(line.Metrics)
			exp := append([]string(nil), want[traced]...)
			sort.Strings(exp)
			if !reflect.DeepEqual(got, exp) {
				t.Errorf("%s trace=%v: metrics %v, want %v", name, traced, got, exp)
			}
		}
	}
}
