package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at 1/50 size, untraced and traced, with
// the oracle on, and holds the metric names a run emits to the names
// BENCHMARK.json declares, in both directions.
func TestSmoke(t *testing.T) {
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	declared := map[bool][]string{}
	for _, m := range spec.EndToEnd {
		declared[false] = append(declared[false], m.Name)
	}
	for _, m := range spec.PerLayer {
		declared[true] = append(declared[true], m.Name)
	}
	var declaredWorkloads []string
	for _, w := range spec.Workloads {
		declaredWorkloads = append(declaredWorkloads, w.Name+": "+w.Why)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name+": "+w.why)
	}
	if !sameSet(declaredWorkloads, have) {
		t.Fatalf("workloads: BENCHMARK.json declares %v, the harness has %v", declaredWorkloads, have)
	}

	defer func(d time.Duration) { replayBudget = d }(replayBudget)
	replayBudget = time.Millisecond
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	out := t.TempDir()

	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			digests := map[string]bool{}
			for _, traced := range []bool{false, true, false} {
				var buf bytes.Buffer
				res, err := runOne(&buf, w, 1, 0.3, traced, 0.02, out)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d: %v",
						traced, res.Correct, res.Failed, res.Attempted, res.Problems)
				}
				digests[res.Digest] = true

				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var last struct {
					Correct   *bool                 `json:"correct"`
					Attempted *int64                `json:"attempted"`
					Failed    *int64                `json:"failed"`
					Metrics   map[string]wireMetric `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&last); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if last.Correct == nil || last.Attempted == nil || last.Failed == nil {
					t.Fatalf("last line lacks a key: %s", lines[len(lines)-1])
				}
				var emitted []string
				for name, m := range last.Metrics {
					emitted = append(emitted, name)
					if !nameRE.MatchString(name) {
						t.Errorf("metric name %q is malformed", name)
					}
					if m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v %q", name, m.Value, m.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				if !sameSet(emitted, declared[traced]) {
					sort.Strings(emitted)
					t.Errorf("traced=%v: emitted %v, BENCHMARK.json declares %v", traced, emitted, declared[traced])
				}
			}
			if len(digests) != 1 {
				t.Errorf("three runs of seed 1 produced different documents: %v", digests)
			}
		})
	}
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return strings.Join(a, "\x00") == strings.Join(b, "\x00")
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(v, n=4):
// for 1..10 Python gives [2.75, 5.5, 8.25].
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", "PASS"},
		{"slower latency", steady, []float64{120, 121, 119, 120, 120}, "lower", "REGRESSED"},
		{"lower throughput", steady, []float64{80, 81, 79, 80, 80}, "higher", "REGRESSED"},
		{"higher throughput", steady, []float64{120, 121, 119, 120, 120}, "higher", "PASS"},
		{"noisy", steady, []float64{60, 140, 100, 80, 120}, "lower", "UNRESOLVED"},
		{"noisy but all better", []float64{200, 300, 250, 220, 280}, steady, "lower", "PASS"},
	} {
		if got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
