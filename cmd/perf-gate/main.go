// Command perf-gate holds hedging to its committed contract: it compares
// fresh `xtract-bench -only tail -benchjson` results against the gate
// block of BENCH_TAIL.json and exits non-zero when hedging stopped cutting
// the p99 job makespan by the floor, or duplicates more than the ceiling's
// share of steps. It is the one gate bench/ has no workload for; every
// throughput and allocation bound of the live system is
// `bench/run.sh -compare`'s, against BENCHMARK.json.
//
//	perf-gate -tail-baseline BENCH_TAIL.json -tail run1.json,run2.json \
//	          -tolerance 0.05
//
// Wall-clock runs are noisy, and noise only ever makes a run look worse,
// so the floor keys on the best fresh run and the ceiling on the least.
// The gate block may pin a "tolerance" that overrides the flag.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// gateBlock is the enforced contract inside BENCH_TAIL.json: hedging must
// keep cutting p99 job makespan by at least the floor while duplicating no
// more than the ceiling's fraction of steps.
type gateBlock struct {
	P99SpeedupFloor           float64  `json:"p99_speedup_floor"`
	DuplicateWorkRatioCeiling float64  `json:"duplicate_work_ratio_ceiling"`
	Tolerance                 *float64 `json:"tolerance"`
}

// freshRun is the part of an xtract-bench -only tail -benchjson output the
// gate reads.
type freshRun struct {
	P99Speedup         float64 `json:"p99_speedup"`
	DuplicateWorkRatio float64 `json:"duplicate_work_ratio"`
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// checkFloor compares one fresh figure against its committed floor
// under the tolerance, returning a human-readable verdict line and
// pass/fail.
func checkFloor(name string, fresh, floor, tolerance float64) (string, bool) {
	limit := floor * (1 - tolerance)
	verdict := "PASS"
	ok := fresh >= limit
	if !ok {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s %s: %.1fx vs floor %.1fx (tolerance %.0f%% -> limit %.1fx)",
		verdict, name, fresh, floor, tolerance*100, limit), ok
}

// checkCeiling is the inverse direction: the fresh figure must stay at
// or below the committed ceiling, inflated by the tolerance.
func checkCeiling(name string, fresh, ceiling, tolerance float64) (string, bool) {
	limit := ceiling * (1 + tolerance)
	verdict := "PASS"
	ok := fresh <= limit
	if !ok {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s %s: %.3f vs ceiling %.3f (tolerance %.0f%% -> limit %.3f)",
		verdict, name, fresh, ceiling, tolerance*100, limit), ok
}

// run gates the comma-separated fresh runs against the baseline: the
// p99-speedup floor on the best run and the duplicate-work ceiling on the
// least, where a zero ratio (no hedge fired) is the best case, not a
// missing figure. It returns the report lines and overall pass.
func run(basePath, freshList string, tolerance float64) ([]string, bool) {
	fail := func(msg string) ([]string, bool) { return []string{"ERROR " + msg}, false }
	if basePath == "" || freshList == "" {
		return fail("-tail-baseline and -tail are both required")
	}
	var base struct {
		Gate gateBlock `json:"gate"`
	}
	if err := readJSON(basePath, &base); err != nil {
		return fail(err.Error())
	}
	g := base.Gate
	if g.P99SpeedupFloor <= 0 {
		return fail(basePath + ": no p99_speedup_floor in its gate block")
	}
	if g.Tolerance != nil {
		tolerance = *g.Tolerance
	}
	var runs []freshRun
	var paths []string
	for _, p := range strings.Split(freshList, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		var r freshRun
		if err := readJSON(p, &r); err != nil {
			return fail(err.Error())
		}
		runs, paths = append(runs, r), append(paths, p)
	}
	if len(runs) == 0 {
		return fail("no fresh tail bench files in " + freshList)
	}
	best, least := 0, 0
	for i, r := range runs {
		if r.P99Speedup > runs[best].P99Speedup {
			best = i
		}
		if r.DuplicateWorkRatio < runs[least].DuplicateWorkRatio {
			least = i
		}
	}
	line, pass := checkFloor("tail p99 speedup ("+paths[best]+")",
		runs[best].P99Speedup, g.P99SpeedupFloor, tolerance)
	lines := []string{line}
	if g.DuplicateWorkRatioCeiling > 0 {
		line, ok := checkCeiling("tail duplicate-work ratio ("+paths[least]+")",
			runs[least].DuplicateWorkRatio, g.DuplicateWorkRatioCeiling, tolerance)
		lines, pass = append(lines, line), pass && ok
	}
	return lines, pass
}

func main() {
	tailBase := flag.String("tail-baseline", "", "committed BENCH_TAIL.json")
	tailFresh := flag.String("tail", "", "fresh tail bench JSON (comma-separated list; best run wins)")
	tolerance := flag.Float64("tolerance", 0.05, "allowed fractional drift past a floor or ceiling (the baseline's gate tolerance overrides)")
	flag.Parse()

	lines, pass := run(*tailBase, *tailFresh, *tolerance)
	for _, l := range lines {
		fmt.Println(l)
	}
	if !pass {
		fmt.Println("perf-gate: regression detected")
		os.Exit(1)
	}
	fmt.Println("perf-gate: ok")
}
