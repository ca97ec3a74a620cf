// Command bench is the repository's end-to-end benchmark. It assembles
// the wiring of `xtract serve` in-process on a loopback listener and
// drives it only through internal/sdk over HTTP.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs one workload: untraced (--trace 0) for the end-to-end metrics,
// or traced (--trace 1) for the per-layer metrics, the layer budget table
// and the span file. Without --workload it runs every workload both
// ways, each in a child process, and saves the numbers for -compare.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all, each in its own process)")
		seed         = flag.Int64("seed", 1, "seed for input generation")
		seconds      = flag.Float64("seconds", 15, "measured time per run")
		traceOn      = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		outDir       = flag.String("out", ".bench_build/out", "directory for trace files and result sets")
		scale        = flag.Float64("scale", 1, "shrink every workload's sizes (the smoke test uses 0.02)")
		runs         = flag.Int("runs", 1, "with no -workload: how many times to run each workload")
		compare      = flag.Bool("compare", false, "compare two result sets: bench -compare a.json b.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		regressed, err := compareSets(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *workloadName == "":
		ok, err := runAll(os.Stdout, *seed, *seconds, *scale, *runs, *outDir)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w, found := workloadByName(*workloadName)
		if !found {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		res, err := runOne(os.Stdout, w, *seed, *seconds, *traceOn != 0, *scale, *outDir)
		if err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload once and prints its report: comment lines,
// one line per metric, then the result as a single JSON object on the
// last line.
func runOne(out io.Writer, w workload, seed int64, seconds float64, traced bool, scale float64, outDir string) (result, error) {
	d := time.Duration(seconds * float64(time.Second))
	fmt.Fprintf(out, "# %s: %s\n", w.name, w.why)
	var res result
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		res, err = runTraced(w, seed, d, scale, outDir, out)
	} else {
		res, err = runUntraced(w, seed, d, scale, out)
	}
	if err != nil {
		return res, err
	}
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	if err := writeJSON(filepath.Join(outDir, "result-"+w.name+"-"+mode+".json"), res); err != nil {
		return res, err
	}
	printResult(out, res, defs)
	return res, nil
}

// wireMetric is a metric as the last line carries it.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(out io.Writer, res result, defs []metricDef) {
	for _, p := range res.Problems {
		fmt.Fprintln(out, "# FAILED:", p)
	}
	fmt.Fprintf(out, "# %s: seed digest %s, %d jobs, failed %d of %d attempted\n",
		res.Workload, res.Digest, res.Jobs, res.Failed, res.Attempted)
	wire := make(map[string]wireMetric, len(defs))
	for _, def := range defs {
		v := res.Metrics[def.name]
		fmt.Fprintf(out, "%-36s %16.4f %s\n", def.name, v, def.unit)
		wire[def.name] = wireMetric{Value: v, Unit: def.unit}
	}
	last, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, wire})
	fmt.Fprintln(out, string(last))
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
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
