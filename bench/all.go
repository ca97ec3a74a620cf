package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// resultSet is what `bench` without -workload saves and -compare reads:
// every metric of every workload, one value per run.
type resultSet struct {
	Machine   machine                 `json:"machine"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Scale     float64                 `json:"scale"`
	Runs      int                     `json:"runs"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

type machine struct {
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go"`
}

type workloadSet struct {
	Digest   string               `json:"digest"`
	EndToEnd map[string][]float64 `json:"end_to_end"`
	PerLayer map[string][]float64 `json:"per_layer"`
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), Go: runtime.Version(), CPU: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// runAll runs every workload untraced and traced, runs times over, each
// run in a child process of its own so that set-up time and peak memory
// belong to one workload. It saves the result set and reports whether
// every run was correct and every run of a workload produced the same
// documents.
func runAll(out io.Writer, seed int64, seconds, scale float64, runs int, outDir string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	set := resultSet{Machine: thisMachine(), Seed: seed, Seconds: seconds, Scale: scale, Runs: runs,
		Workloads: make(map[string]*workloadSet)}
	ok := true
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			ws := set.Workloads[w.name]
			if ws == nil {
				ws = &workloadSet{EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
				set.Workloads[w.name] = ws
			}
			for _, mode := range []string{"untraced", "traced"} {
				trace := "0"
				into := ws.EndToEnd
				if mode == "traced" {
					trace, into = "1", ws.PerLayer
				}
				fmt.Fprintf(out, "## %s, %s, run %d of %d\n", w.name, mode, r+1, runs)
				cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed),
					"--seconds", fmt.Sprint(seconds), "--trace", trace,
					"-scale", fmt.Sprint(scale), "-out", outDir)
				cmd.Stdout, cmd.Stderr = out, os.Stderr
				resPath := filepath.Join(outDir, "result-"+w.name+"-"+mode+".json")
				_ = os.Remove(resPath) // a run that dies must not be read as the one before it
				runErr := cmd.Run()
				var res result
				if err := readJSON(resPath, &res); err != nil {
					return false, fmt.Errorf("%s %s: %v (child: %v)", w.name, mode, err, runErr)
				}
				if runErr != nil || !res.Correct {
					ok = false
				}
				for name, v := range res.Metrics {
					into[name] = append(into[name], v)
				}
				switch {
				case ws.Digest == "":
					ws.Digest = res.Digest
				case ws.Digest != res.Digest:
					ok = false
					fmt.Fprintf(out, "# FAILED: %s: documents differ between runs of seed %d (%s vs %s)\n",
						w.name, seed, res.Digest, ws.Digest)
				}
			}
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("set-seed%d.json", seed))
	if err := writeJSON(path, set); err != nil {
		return false, err
	}
	fmt.Fprintf(out, "## result set written to %s\n", path)
	return ok, nil
}
