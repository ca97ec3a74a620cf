package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeJSON(t *testing.T, dir, name string, v interface{}) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// baseline mirrors BENCH_TAIL.json's gate block: a 2x p99-speedup floor
// and a 0.10 duplicate-work ceiling, plus whatever else gate adds.
func baseline(t *testing.T, dir string, gate map[string]float64) string {
	t.Helper()
	g := map[string]float64{"p99_speedup_floor": 2.0, "duplicate_work_ratio_ceiling": 0.10}
	for k, v := range gate {
		g[k] = v
	}
	return writeJSON(t, dir, "BENCH_TAIL.json", map[string]interface{}{"gate": g, "p99_speedup": 3.0})
}

func fresh(t *testing.T, dir, name string, speedup, ratio float64) string {
	return writeJSON(t, dir, name, map[string]float64{"p99_speedup": speedup, "duplicate_work_ratio": ratio})
}

func TestGatePassesAtFloor(t *testing.T) {
	dir := t.TempDir()
	lines, pass := run(baseline(t, dir, nil), fresh(t, dir, "tail.json", 2.0, 0.10), 0.05)
	if !pass {
		t.Fatalf("gate failed at exactly the floor and the ceiling:\n%s", strings.Join(lines, "\n"))
	}
}

// TestGateFailsOnInjectedSlowdown is the acceptance check: a 10% drop in
// p99 speedup against the committed floor must fail a 5%-tolerance gate.
func TestGateFailsOnInjectedSlowdown(t *testing.T) {
	dir := t.TempDir()
	lines, pass := run(baseline(t, dir, nil), fresh(t, dir, "tail.json", 1.8, 0.04), 0.05)
	if pass {
		t.Fatalf("gate passed a 10%% speedup drop:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[0], "FAIL tail p99 speedup") {
		t.Fatalf("expected a speedup FAIL verdict, got:\n%s", strings.Join(lines, "\n"))
	}
}

// TestGateTail: duplicate work past the ceiling fails even when hedging
// still clears its speedup floor.
func TestGateTail(t *testing.T) {
	dir := t.TempDir()
	lines, pass := run(baseline(t, dir, nil), fresh(t, dir, "tail.json", 2.8, 0.30), 0.05)
	if pass {
		t.Fatalf("gate passed a blown duplicate-work ceiling:\n%s", strings.Join(lines, "\n"))
	}
	if len(lines) < 2 || !strings.Contains(lines[1], "FAIL tail duplicate-work ratio") {
		t.Fatalf("expected a duplicate-work FAIL verdict, got:\n%s", strings.Join(lines, "\n"))
	}
}

func TestGateTakesBestOfMultipleRuns(t *testing.T) {
	dir := t.TempDir()
	// One noisy slow run plus one healthy run: the floor keys on the best.
	slow := fresh(t, dir, "tail1.json", 1.2, 0.04)
	good := fresh(t, dir, "tail2.json", 2.1, 0.04)
	lines, pass := run(baseline(t, dir, nil), slow+","+good, 0.05)
	if !pass {
		t.Fatalf("gate ignored the best run:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[0], "tail2.json") {
		t.Fatalf("verdict should name the best run, got:\n%s", lines[0])
	}
}

// TestGateCeilingTakesLeastOfRuns mirrors best-of-N for the floor: a noisy
// wasteful run must not fail the gate when another run is clean, and a
// zero ratio (no hedge fired) is that clean run, not a missing figure.
func TestGateCeilingTakesLeastOfRuns(t *testing.T) {
	dir := t.TempDir()
	noisy := fresh(t, dir, "tail1.json", 2.5, 0.30)
	quiet := fresh(t, dir, "tail2.json", 2.4, 0)
	lines, pass := run(baseline(t, dir, nil), noisy+","+quiet, 0.05)
	if !pass {
		t.Fatalf("gate keyed on the noisy run's duplicate work:\n%s", strings.Join(lines, "\n"))
	}
	if len(lines) < 2 || !strings.Contains(lines[1], "tail2.json") {
		t.Fatalf("ceiling verdict should name the least wasteful run, got:\n%s", strings.Join(lines, "\n"))
	}
}

// TestGatePerBenchToleranceOverridesGlobal covers both directions of the
// override: a loose baseline tolerance rescues a run the strict global
// would fail, and a strict one fails a run the loose global would pass.
func TestGatePerBenchToleranceOverridesGlobal(t *testing.T) {
	dir := t.TempDir()
	run18 := fresh(t, dir, "tail.json", 1.8, 0.04)
	if lines, pass := run(baseline(t, dir, map[string]float64{"tolerance": 0.5}), run18, 0); !pass {
		t.Fatalf("baseline 50%% tolerance did not override the 0%% global:\n%s", strings.Join(lines, "\n"))
	}
	if lines, pass := run(baseline(t, dir, map[string]float64{"tolerance": 0}), run18, 0.5); pass {
		t.Fatalf("baseline 0%% tolerance did not override the 50%% global:\n%s", strings.Join(lines, "\n"))
	}
}

func TestGateErrorsOnMissingInputs(t *testing.T) {
	dir := t.TempDir()
	good := fresh(t, dir, "tail.json", 2.8, 0.04)
	if _, pass := run("", good, 0.05); pass {
		t.Fatal("invocation without a baseline must fail")
	}
	if _, pass := run(baseline(t, dir, nil), filepath.Join(dir, "nope.json"), 0.05); pass {
		t.Fatal("missing fresh file must fail")
	}
	if _, pass := run(baseline(t, dir, map[string]float64{"p99_speedup_floor": 0}), good, 0.05); pass {
		t.Fatal("a baseline without a floor must fail")
	}
}
