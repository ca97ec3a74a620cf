package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"xtract/internal/api"
	"xtract/internal/dataset"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/store"
	"xtract/internal/transfer"
	"xtract/internal/validate"
)

// workload is one named input shape. why is the reason it exists; the
// same sentence is in BENCHMARK.json and the README says more.
type workload struct {
	name string
	why  string
	// build generates the workload's stores from seed and returns how to
	// deploy and drive the system over them. scale shrinks every size
	// (1 = the benchmark's size; the smoke test runs at 1/50).
	build func(seed int64, scale float64) (*plan, error)
}

var workloads = []workload{
	{"orch-noop", "No-op extractor over 3-byte files on two sites, zero FaaS costs: core pump, queue, faas, async journal and validate do all the work, so this is the orchestrator's ceiling.", buildOrchNoop},
	{"extract-mdf", "Heavy MDF-shaped files through the real extractors with the cache bypassed: extractors and store reads dominate and the pump does little.", buildExtractMDF},
	{"stage-remote", "Files held on a storage-only site and staged over a modelled link with FaaS costs on: the only wait-bound workload, set by transfer and batching, not CPU.", buildStageRemote},
	{"warm-rerun", "The extract-mdf corpus re-run with every step a cache hit: crawl, fingerprinting, cache reads and document rebuild, with no faas and no extractors.", buildWarmRerun},
	{"many-jobs", "One closed-loop client per core, each its own tenant, submitting 20-file jobs back to back: api, auth, tenant admission, registry and synchronous journal appends, with the cache thrashing.", buildManyJobs},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks n by scale, never below floor.
func scaled(n int, scale float64, floor int) int {
	v := int(float64(n) * scale)
	if v < floor {
		v = floor
	}
	return v
}

const destPrefix = "/metadata/"

func oneSlot(string) int { return 0 }

// noopExtractor applies to every file and returns constant metadata
// without looking at content: the cheapest possible step.
type noopExtractor struct{}

func (noopExtractor) Name() string                { return "noop" }
func (noopExtractor) Container() string           { return "noop-container" }
func (noopExtractor) Applies(store.FileInfo) bool { return true }
func (noopExtractor) Extract(_ *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	return map[string]interface{}{"files": len(files)}, nil
}

// buildOrchNoop: two compute sites × 8 workers, each holding half of
// the job's single-file 3-byte families, 64 to a directory.
func buildOrchNoop(seed int64, scale float64) (*plan, error) {
	perSite := scaled(10000, scale, 40)
	p := &plan{
		library: extractors.NewLibrary(noopExtractor{}),
		clients: 1,
		poll:    2 * time.Millisecond,
		slotOf:  oneSlot,
		warmups: 1,
	}
	req := api.JobRequest{NoCache: true}
	for s := 0; s < 2; s++ {
		name := fmt.Sprintf("site%02d", s)
		fs := store.NewMemFS(name, nil)
		for i := 0; i < perSite; i++ {
			body := []byte{byte(seed), byte(i), byte(i >> 8)}
			if err := fs.Write(fmt.Sprintf("/p/d%03d/f%05d.dat", i/64, i), body); err != nil {
				return nil, err
			}
		}
		p.sites = append(p.sites, siteSpec{name: name, store: fs, workers: 8})
		req.Repos = append(req.Repos, api.RepoRequest{Site: name, Roots: []string{"/p"}, Grouper: "single"})
	}
	p.next = func(int, int) job { return job{req: req, prefix: destPrefix, key: "all"} }
	return p, nil
}

// materializeMDF writes an MDF-shaped repository with the layout and
// file kinds of dataset.MaterializeMDF. The mix of kinds is fixed — four
// VASP sets, two structures, two tables, a log with notes and an image
// in every ten groups — so that two seeds differ in content, not in how
// much work the repository is. heavy sizes the content so that parsing
// it, not moving it, is the work: large POSCAR/OUTCAR sets, long tables
// and texts, 96 px images.
func materializeMDF(s store.Store, root string, groups int, seed int64, heavy bool) error {
	rng := rand.New(rand.NewSource(seed))
	// size draws from the light range, or the heavy one.
	size := func(lo, hi, heavyLo, heavyHi int) int {
		if heavy {
			lo, hi = heavyLo, heavyHi
		}
		return lo + rng.Intn(hi-lo+1)
	}
	type file struct {
		name string
		data []byte
	}
	for g := 0; g < groups; g++ {
		dir := fmt.Sprintf("%s/dataset_%03d/calc_%05d", root, g%37, g)
		var files []file
		switch g % 10 {
		case 0, 1, 2, 3:
			files = []file{
				{"INCAR", dataset.INCARFile(rng)},
				{"POSCAR", dataset.POSCARFile(rng, size(4, 31, 200, 600))},
				{"OUTCAR", dataset.OUTCARFile(rng, size(1, 5, 200, 600))},
				{"run.yaml", dataset.YAMLFile(rng)},
			}
		case 4, 5:
			files = []file{{"structure.cif", dataset.CIFFile(rng)}, {"meta.json", dataset.JSONFile(rng)}}
		case 6, 7:
			files = []file{{"results.csv", dataset.CSVFile(rng, size(5, 44, 500, 2000), size(3, 7, 3, 7))}}
		case 8:
			files = []file{{"log.xml", dataset.XMLFile(rng)}, {"notes.txt", dataset.TextFile(rng, size(40, 239, 2000, 8000))}}
		case 9:
			files = []file{{"micrograph.png", dataset.Image(rng, dataset.ImgPhoto, size(32, 32, 96, 96))}}
		}
		for _, f := range files {
			if err := s.Write(dir+"/"+f.name, f.data); err != nil {
				return err
			}
		}
	}
	return nil
}

// mdfPlan is the deployment extract-mdf and warm-rerun share: one site
// with 2×nproc workers over the heavy corpus, matio grouper, MDF
// validator.
func mdfPlan(seed int64, scale float64, noCache bool) (*plan, error) {
	fs := store.NewMemFS("mdf", nil)
	if err := materializeMDF(fs, "/data", scaled(1500, scale, 20), seed, true); err != nil {
		return nil, err
	}
	req := api.JobRequest{
		NoCache: noCache,
		Repos:   []api.RepoRequest{{Site: "mdf", Roots: []string{"/data"}, Grouper: "matio"}},
	}
	return &plan{
		sites:     []siteSpec{{name: "mdf", store: fs, workers: 2 * runtime.NumCPU()}},
		validator: validate.NewMDF("bench"),
		cacheCap:  8192,
		clients:   1,
		poll:      2 * time.Millisecond,
		slotOf:    oneSlot,
		warmups:   1,
		next:      func(int, int) job { return job{req: req, prefix: destPrefix, key: "all"} },
	}, nil
}

func buildExtractMDF(seed int64, scale float64) (*plan, error) { return mdfPlan(seed, scale, true) }

// buildWarmRerun primes the cache with one cold job during set-up; every
// measured job must then be answered from the cache.
func buildWarmRerun(seed int64, scale float64) (*plan, error) {
	p, err := mdfPlan(seed, scale, false)
	if err != nil {
		return nil, err
	}
	p.warm = true
	return p, nil
}

// buildStageRemote: the repository sits on storage-only petrel; theta
// computes over an empty store, so every file crosses the link first.
func buildStageRemote(seed int64, scale float64) (*plan, error) {
	petrel := store.NewMemFS("petrel", nil)
	if err := materializeMDF(petrel, "/data", scaled(500, scale, 20), seed, false); err != nil {
		return nil, err
	}
	req := api.JobRequest{
		NoCache: true,
		Repos:   []api.RepoRequest{{Site: "petrel", Roots: []string{"/data"}, Grouper: "matio"}},
	}
	return &plan{
		sites: []siteSpec{
			{name: "petrel", store: petrel},
			{name: "theta", store: store.NewMemFS("theta", nil), workers: 8},
		},
		links: []link{{"petrel", "theta", transfer.Link{
			BytesPerSec: 200e6, RTT: 5 * time.Millisecond, PerFileOverhead: 100 * time.Microsecond,
		}}},
		// The control-plane latencies of BENCH_PUMP.json.
		costs: faas.Costs{
			AuthPerRequest:  500 * time.Microsecond,
			SubmitPerBatch:  time.Millisecond,
			SubmitPerTask:   20 * time.Microsecond,
			DispatchPerTask: 50 * time.Microsecond,
			ResultPerTask:   20 * time.Microsecond,
		},
		cacheCap: 4096,
		clients:  1,
		poll:     2 * time.Millisecond,
		slotOf:   oneSlot,
		warmups:  1,
		next:     func(int, int) job { return job{req: req, prefix: destPrefix, key: "all"} },
	}, nil
}

// manyJobsRepos is how many 20-file repositories many-jobs cycles over,
// shared evenly between the clients. With the serve-default cache of
// 4,096 entries the working set is about twice the capacity, and visiting
// it in order makes every lookup a miss and every write-back an eviction.
const manyJobsRepos = 512

// buildManyJobs: nproc closed-loop clients, each its own tenant, each
// submitting one small repository per job, in order, from its own slice.
func buildManyJobs(seed int64, scale float64) (*plan, error) {
	clients := runtime.NumCPU()
	if clients > maxSlots {
		clients = maxSlots
	}
	perClient := scaled(manyJobsRepos, scale, 4*clients) / clients
	fs := store.NewMemFS("local", nil)
	for c := 0; c < clients; c++ {
		for r := 0; r < perClient; r++ {
			if _, err := dataset.MaterializeCDIAC(fs, repoRoot(c, r), 20, seed*1_000_003+int64(c*perClient+r)); err != nil {
				return nil, err
			}
		}
	}
	return &plan{
		sites:     []siteSpec{{name: "local", store: fs, workers: 8}},
		cacheCap:  scaled(4096, scale, 64),
		taskSlots: 16,
		clients:   clients,
		poll:      time.Millisecond,
		slotOf:    repoSlot,
		warmups:   2,
		next: func(c, i int) job {
			root := repoRoot(c, i%perClient)
			return job{
				req:    api.JobRequest{Repos: []api.RepoRequest{{Site: "local", Roots: []string{root}, Grouper: "single"}}},
				prefix: destPrefix + sanitizeID("local:"+root) + "_",
				key:    root,
			}
		},
	}, nil
}

func repoRoot(client, repo int) string { return fmt.Sprintf("/repos/c%02d/r%04d", client, repo) }

// repoSlot recovers the client number from a many-jobs path, in either
// its source form (/repos/c03/…) or its document form (…_repos_c03_…).
func repoSlot(path string) int {
	i := strings.Index(path, "repos")
	if i < 0 || i+9 > len(path) || path[i+6] != 'c' {
		return -1
	}
	d1, d0 := path[i+7], path[i+8]
	if d1 < '0' || d1 > '9' || d0 < '0' || d0 > '9' {
		return -1
	}
	return int(d1-'0')*10 + int(d0-'0')
}

// sanitizeID mirrors how the validation service turns a family ID into a
// document name: anything but letters, digits, '-', '_' and '.' becomes
// '_'.
func sanitizeID(id string) string {
	out := []byte(id)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
