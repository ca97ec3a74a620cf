package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xtract/internal/cache"
	"xtract/internal/clock"
	"xtract/internal/cluster"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/faultinject"
	"xtract/internal/journal"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/transfer"
	"xtract/internal/validate"
)

// world is the durable layer every node life of one test shares: the
// sites' data stores, the destination, the journal's directory and, in a
// cluster, the open journal and the coordinator. Everything else belongs
// to one node life — a harness, its validator included — and dies with
// it.
type world struct {
	specs []siteSpec
	sites map[string]*store.MemFS
	dest  *store.MemFS
	jdir  journal.Dir          // nil: no journal
	jnl   *journal.Journal     // open on jdir: the current life's, or the whole cluster's
	coord *cluster.Coordinator // nil: a single node
	lives []*harness
}

type siteSpec struct {
	name    string
	workers int              // 0 = storage-only
	now     func() time.Time // the store's clock; nil = time.Now
	exclude []string         // extractors the site's container runtime cannot run
}

func newWorld(t testing.TB, sites []siteSpec) *world {
	w := &world{
		specs: sites,
		sites: make(map[string]*store.MemFS),
		dest:  store.NewMemFS("user-dest", nil),
	}
	for _, spec := range sites {
		w.sites[spec.name] = store.NewMemFS(spec.name, spec.now)
	}
	t.Cleanup(w.teardown)
	return w
}

// teardown ends every life and closes the open journal.
func (w *world) teardown() {
	for _, h := range w.lives {
		h.kill()
	}
	if w.jnl != nil {
		_ = w.jnl.Close()
		w.jnl = nil
	}
}

// node is what one life brings to its world.
type node struct {
	id     string      // cluster member ID; "" for a single node
	clk    clock.Clock // nil: the wall clock
	policy scheduler.Policy
	inv    *invLog       // non-nil: the library counts extractor invocations
	delay  time.Duration // per counted invocation
	faults *faultinject.Injector
	medic  bool // replace an endpoint that stops, as the paper's restart does
	mut    func(*Config)
}

// harness is one node life of a live Xtract deployment over its world:
// registry, FaaS service and endpoints, fabric, prefetcher, validator —
// and, in a cluster, the node's maintenance loop.
type harness struct {
	*world
	id       string
	clk      clock.Clock
	svc      *Service
	fsvc     *faas.Service
	fabric   *transfer.Fabric
	pf       *transfer.Prefetcher
	valsvc   *validate.Service
	inv      *invLog
	node     *cluster.Node
	ctx      context.Context
	cancel   context.CancelFunc
	loopDone chan struct{} // closes when the node loop has returned
	dead     bool
}

func newHarness(t *testing.T, sites []siteSpec, policy scheduler.Policy) *harness {
	t.Helper()
	return newHarnessCfg(t, sites, policy, nil)
}

// newHarnessCfg is one node over a world of its own, with a config hook
// applied before the service is built (e.g. to attach a result cache).
func newHarnessCfg(t testing.TB, sites []siteSpec, policy scheduler.Policy, mut func(*Config)) *harness {
	t.Helper()
	return newWorld(t, sites).start(t, node{policy: policy, mut: mut})
}

// start boots one node life over the world. A journaled world's journal
// is opened by the first life that needs it.
func (w *world) start(t testing.TB, n node) *harness {
	t.Helper()
	clk := n.clk
	if clk == nil {
		clk = clock.NewReal()
	}
	h := &harness{world: w, id: n.id, clk: clk, inv: n.inv, loopDone: make(chan struct{})}
	h.ctx, h.cancel = context.WithCancel(context.Background())
	h.fsvc = faas.NewService(clk, faas.Costs{})
	h.fabric = transfer.NewFabric(clk)
	h.pf = transfer.NewPrefetcher(h.fabric, clk)
	if w.jdir != nil && w.jnl == nil {
		jnl, err := journal.Open(w.jdir, journal.Options{Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		w.jnl = jnl
	}
	h.valsvc = validate.NewService(validate.Passthrough{}, w.dest)
	cfg := Config{
		Clock: clk, FaaS: h.fsvc, Fabric: h.fabric,
		Library:    extractors.DefaultLibrary(),
		Prefetcher: h.pf, Validation: h.valsvc,
		Settings: Settings{Policy: n.policy}, Journal: w.jnl,
	}
	if n.inv != nil {
		cfg.Library = countingLibrary(n.inv, n.delay)
	}
	if w.coord != nil {
		h.node = cluster.NewNode(w.coord, n.id, "mem://"+n.id)
		cfg.Cluster = h.node
	}
	if n.faults != nil {
		h.fsvc.HeartbeatTimeout = 40 * time.Millisecond
		h.fsvc.SetFaults(n.faults)
		h.fabric.SetFaults(n.faults)
		cfg.ExtractFaults = n.faults
	}
	if n.mut != nil {
		n.mut(&cfg)
	}
	h.svc = New(cfg)
	for _, spec := range w.specs {
		fs := w.sites[spec.name]
		h.fabric.AddEndpoint(spec.name, fs)
		site := &Site{Name: spec.name, Store: fs, SiteSettings: SiteSettings{ExcludeExtractors: spec.exclude}}
		if spec.workers > 0 {
			ep, err := h.endpoint("ep-"+spec.name, spec.workers)
			if err != nil {
				t.Fatal(err)
			}
			site.Compute = ep
		}
		h.svc.AddSite(site)
	}
	if err := h.svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}
	go h.pf.Run(h.ctx, 2)
	go h.valsvc.Run(h.ctx)
	if h.node != nil {
		go func() {
			defer close(h.loopDone)
			h.node.Run(h.ctx, func(c context.Context, lost []string) {
				for _, id := range lost {
					h.svc.Cancel(id)
				}
				h.svc.FailoverScan(c)
			})
		}()
	} else {
		close(h.loopDone)
	}
	if n.medic {
		go h.medic()
	}
	w.lives = append(w.lives, h)
	return h
}

// endpoint registers and starts a compute endpoint on the life's FaaS
// service.
func (h *harness) endpoint(id string, workers int) (*faas.Endpoint, error) {
	ep := faas.NewEndpoint(id, workers, h.clk)
	h.fsvc.RegisterEndpoint(ep)
	return ep, ep.Start(h.ctx)
}

// medic brings up a replacement for any compute endpoint that has stopped
// and swaps it in: the paper's endpoint-restart recovery.
func (h *harness) medic() {
	for gen := 0; ; {
		select {
		case <-h.ctx.Done():
			return
		case <-time.After(5 * time.Millisecond):
		}
		for _, name := range h.svc.Sites() {
			site, _ := h.svc.Site(name)
			if cur := site.ComputeEndpoint(); cur == nil || !cur.Stopped() {
				continue
			}
			gen++
			ep, err := h.endpoint(fmt.Sprintf("ep-%s-%d", name, gen), 3)
			if err != nil {
				return
			}
			_ = h.svc.SwapCompute(name, ep)
			_ = h.svc.RegisterExtractors()
		}
	}
}

func (h *harness) close() { h.cancel() }

// kill ends the life the way a dying process does: BeginShutdown first, so
// an interrupted pump suspends instead of journaling a terminal record —
// as a SIGKILLed process never runs again — then every goroutine stops. A
// node's leases are not released: they expire, which is how its peers
// learn it has gone.
func (h *harness) kill() {
	if h.dead {
		return
	}
	h.dead = true
	h.svc.BeginShutdown()
	h.cancel()
	<-h.loopDone
}

// docs reads the destination's documents (a job writes all of its own
// before it ends) and fails unless there are want of them.
func (w *world) docs(t testing.TB, want int) map[string][]byte {
	t.Helper()
	docs := snapshotDocs(t, w.dest)
	if len(docs) != want {
		t.Fatalf("the destination holds %d documents, want %d", len(docs), want)
	}
	return docs
}

// docsAre fails unless the destination holds exactly want's documents,
// byte for byte.
func (w *world) docsAre(t testing.TB, want map[string][]byte) {
	t.Helper()
	if docs := snapshotDocs(t, w.dest); !docsEqual(docs, want) {
		t.Fatalf("the destination holds %d documents unlike the control's %d", len(docs), len(want))
	}
}

// snapshotDocs reads every validated document at the destination.
func snapshotDocs(t testing.TB, dest *store.MemFS) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	infos, err := dest.List("/metadata")
	if err != nil {
		return out // no docs yet
	}
	for _, info := range infos {
		if info.IsDir {
			continue
		}
		data, err := dest.Read(info.Path)
		if err != nil {
			t.Fatal(err)
		}
		out[info.Path] = data
	}
	return out
}

func docsEqual(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !bytes.Equal(v, b[k]) {
			return false
		}
	}
	return true
}

// invLog records extractor invocations keyed by group and extractor, so a
// test can prove a journaled completion is never run again.
type invLog struct {
	mu sync.Mutex
	m  map[string]int
}

func newInvLog() *invLog { return &invLog{m: make(map[string]int)} }

func invKey(groupID, extractor string) string { return groupID + "\x1f" + extractor }

func (l *invLog) add(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m[key]++
}

func (l *invLog) count(key string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m[key]
}

func (l *invLog) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.m {
		n += c
	}
	return n
}

// countingExtractor wraps an extractor, logging each real invocation
// (cache hits never reach Extract). delay slows extraction down so that
// churn lands mid-run.
type countingExtractor struct {
	inner extractors.Extractor
	log   *invLog
	delay time.Duration
}

func (c *countingExtractor) Name() string                     { return c.inner.Name() }
func (c *countingExtractor) Version() string                  { return extractors.VersionOf(c.inner) }
func (c *countingExtractor) Container() string                { return c.inner.Container() }
func (c *countingExtractor) Applies(info store.FileInfo) bool { return c.inner.Applies(info) }

func (c *countingExtractor) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	c.log.add(invKey(g.ID, c.inner.Name()))
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return c.inner.Extract(g, files)
}

// countingLibrary wraps the default library, preserving registration
// order (order decides each group's initial extractor).
func countingLibrary(log *invLog, delay time.Duration) *extractors.Library {
	base := extractors.DefaultLibrary()
	var wrapped []extractors.Extractor
	for _, name := range base.Names() {
		e, err := base.Get(name)
		if err != nil {
			panic(err)
		}
		wrapped = append(wrapped, &countingExtractor{inner: e, log: log, delay: delay})
	}
	return extractors.NewLibrary(wrapped...)
}

// seedScience writes a small mixed-type repository.
func seedScience(t testing.TB, fs *store.MemFS, root string) int {
	t.Helper()
	files := map[string]string{
		root + "/exp1/INCAR":     "ENCUT = 520\nISMEAR = 0\n",
		root + "/exp1/POSCAR":    "si\n1.0\n5.43 0 0\n0 5.43 0\n0 0 5.43\nSi\n2\nDirect\n0 0 0\n0.25 0.25 0.25\n",
		root + "/exp1/OUTCAR":    "free  energy   TOTEN  = -10.84 eV\nreached required accuracy\n",
		root + "/exp2/data.csv":  "x,y\n1,2\n3,4\n5,6\n",
		root + "/exp2/notes.txt": "perovskite solar cell absorber layers studied extensively",
		root + "/readme.md":      "materials data facility sample subset",
	}
	for p, content := range files {
		if err := fs.Write(p, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	return len(files)
}

// A zero Settings comes out of New with every default, and a site added
// without a staging path gets the default one: New and AddSite are where
// every default is applied.
func TestNewDefaultsEverySetting(t *testing.T) {
	svc := bareService(t, nil, nil)
	got := svc.cfg.Settings
	site, _ := svc.Site("x")
	for _, c := range []struct {
		setting   string
		got, want any
	}{
		{"Policy", got.Policy, scheduler.LocalPolicy{}},
		{"XtractBatchSize", got.XtractBatchSize, 8},
		{"FuncXBatchSize", got.FuncXBatchSize, 16},
		{"Retry", got.Retry, DefaultRetryPolicy},
		{"Hedge", got.Hedge, HedgePolicy{Quantile: 0.95, Multiplier: 3, MinSamples: 20, MinDelay: 5 * time.Millisecond}},
		{"Breakers", got.Breakers, BreakerPolicy{Window: 20, TripRatio: 0.5, Cooldown: 2 * time.Second, HalfOpenProbes: 3}},
		{"Shed", got.Shed, ShedPolicy{RetryAfter: time.Second}},
		{"StragglerBudget", got.StragglerBudget, 0},
		{"Site.StagePath", site.StagePath, "/xtract-stage"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %+v, want %+v", c.setting, c.got, c.want)
		}
	}
}

func TestEndToEndLocalExtraction(t *testing.T) {
	h := newHarness(t, []siteSpec{{name: "theta", workers: 4}}, scheduler.LocalPolicy{})
	seedScience(t, h.sites["theta"], "/mdf")

	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "theta",
		Roots:   []string{"/mdf"},
		Grouper: "matio",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Crawl.FilesSeen != 6 {
		t.Fatalf("crawl files = %d", stats.Crawl.FilesSeen)
	}
	if stats.FamiliesDone == 0 || stats.FamiliesFailed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.StepsProcessed < stats.FamiliesDone {
		t.Fatalf("steps %d < families %d", stats.StepsProcessed, stats.FamiliesDone)
	}
	// Validation output landed at the destination; the VASP family's
	// metadata includes structure and results blocks.
	foundStructure := false
	for _, data := range h.docs(t, int(stats.FamiliesDone)) {
		if strings.Contains(string(data), `"structure"`) && strings.Contains(string(data), `"incar"`) {
			foundStructure = true
		}
	}
	if !foundStructure {
		t.Fatal("no validated document carries VASP metadata")
	}
}

func TestEndToEndStagingFromStorageOnlySite(t *testing.T) {
	// Petrel has no compute: files must be prefetched to River.
	h := newHarness(t, []siteSpec{
		{name: "petrel", workers: 0},
		{name: "river", workers: 4},
	}, scheduler.LocalPolicy{})
	seedScience(t, h.sites["petrel"], "/data")

	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "petrel",
		Roots:   []string{"/data"},
		Grouper: "single",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesDone == 0 || stats.FamiliesFailed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.BytesStaged == 0 {
		t.Fatal("no bytes staged despite computeless home")
	}
	// Staged copies exist on river under the stage path.
	if _, err := h.sites["river"].Stat("/xtract-stage/data/readme.md"); err != nil {
		t.Fatalf("staged file missing: %v", err)
	}
}

// echoExtractor reports what it was handed: the names its input is keyed
// by, with the bytes under each.
type echoExtractor struct{}

func (echoExtractor) Name() string                { return "echo" }
func (echoExtractor) Container() string           { return "xtract-echo" }
func (echoExtractor) Applies(store.FileInfo) bool { return true }
func (echoExtractor) Extract(_ *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	read := make(map[string]string, len(files))
	for name, data := range files {
		read[name] = string(data)
	}
	return map[string]interface{}{"read": read}, nil
}

// A staged family's worker reads each file under its site's stage prefix
// and still hands it to the extractor under its original path. The
// execution site holds a different file at that original path, which is
// what a worker ignoring the prefix would read.
func TestStagedStepReadsUnderItsPrefix(t *testing.T) {
	lib := extractors.NewLibrary(echoExtractor{})
	h := newHarnessCfg(t, []siteSpec{{name: "petrel"}, {name: "river", workers: 2}}, scheduler.LocalPolicy{},
		func(cfg *Config) { cfg.Library = lib })
	if err := h.sites["petrel"].Write("/data/a.dat", []byte("from home")); err != nil {
		t.Fatal(err)
	}
	if err := h.sites["river"].Write("/data/a.dat", []byte("decoy")); err != nil {
		t.Fatal(err)
	}
	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
		Site: "petrel", Roots: []string{"/data"}, Grouper: "single",
	}})
	if err != nil || stats.FamiliesDone != 1 || stats.BytesStaged == 0 {
		t.Fatalf("stats = %+v, err = %v", stats, err)
	}
	for _, doc := range takeDocs(t, h, 1) {
		if !bytes.Contains(doc, []byte(`"read":{"/data/a.dat":"from home"}`)) {
			t.Fatalf("the extractor was not handed the staged copy under the original path: %s", doc)
		}
	}
}

func TestEndToEndDynamicPlanExpansion(t *testing.T) {
	// A .txt file containing a table triggers keyword → tabular expansion.
	h := newHarness(t, []siteSpec{{name: "midway", workers: 2}}, scheduler.LocalPolicy{})
	fs := h.sites["midway"]
	table := "a,b,c\n1,2,3\n4,5,6\n7,8,9\n"
	if err := fs.Write("/d/table.txt", []byte(table)); err != nil {
		t.Fatal(err)
	}
	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "midway",
		Roots:   []string{"/d"},
		Grouper: "single",
	}})
	if err != nil {
		t.Fatal(err)
	}
	// keyword + suggested tabular = at least 2 steps on 1 family.
	if stats.FamiliesDone != 1 || stats.StepsProcessed < 2 {
		t.Fatalf("stats = %+v", stats)
	}
	for _, data := range h.docs(t, 1) {
		var doc struct{ Metadata map[string]json.RawMessage }
		_ = json.Unmarshal(data, &doc)
		hasTabular := false
		var keys []string
		for key := range doc.Metadata {
			hasTabular = hasTabular || strings.HasSuffix(key, "/tabular")
			keys = append(keys, key)
		}
		if !hasTabular {
			t.Fatalf("dynamic tabular step missing; keys: %v", keys)
		}
	}
}

func TestEndToEndOffloadRand(t *testing.T) {
	// With RAND 100%, every family offloads from midway to jetstream.
	h := newHarness(t, []siteSpec{
		{name: "midway", workers: 2},
		{name: "jetstream", workers: 2},
	}, &scheduler.RandPolicy{Percent: 100, Rng: newSeededRand()})
	seedScience(t, h.sites["midway"], "/repo")

	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "midway",
		Roots:   []string{"/repo"},
		Grouper: "single",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesDone == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.BytesStaged == 0 {
		t.Fatal("100%% offload but nothing staged")
	}
	// All executed tasks ran on jetstream's endpoint.
	js, _ := h.svc.Site("jetstream")
	mw, _ := h.svc.Site("midway")
	if js.Compute.TasksExecuted.Load() == 0 {
		t.Fatal("jetstream executed nothing")
	}
	if mw.Compute.TasksExecuted.Load() != 0 {
		t.Fatalf("midway executed %d tasks despite full offload", mw.Compute.TasksExecuted.Load())
	}
}

// stopMidBatch is the keyword extractor on an endpoint that dies in the
// middle of a task: the first time it is handed a step after another of
// the same task has finished, it reports the finished ones and parks until
// released. A task boundary is where the endpoint's count of executed
// tasks moves: its one worker runs tasks one after another.
type stopMidBatch struct {
	extractors.Extractor
	ep      *faas.Endpoint
	mu      sync.Mutex
	fired   bool
	task    int64    // ep.TasksExecuted at the last invocation
	done    []string // groups of that task already extracted
	parked  chan []string
	release chan struct{}
}

func (x *stopMidBatch) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	x.mu.Lock()
	if !x.fired {
		if n := x.ep.TasksExecuted.Load(); n != x.task {
			x.task, x.done = n, nil
		}
		if len(x.done) > 0 {
			x.fired = true
			x.mu.Unlock()
			x.parked <- x.done
			<-x.release
			return x.Extractor.Extract(g, files)
		}
		x.done = append(x.done, g.ID)
	}
	x.mu.Unlock()
	return x.Extractor.Extract(g, files)
}

// The paper's allocation restart (Figure 8) without a checkpoint file: the
// only endpoint stops while a multi-step task is mid-batch, and a
// replacement takes over. Every step the lost task had finished was filed
// in the result cache by its worker, so it is extracted exactly once and
// its retry commits as Cached; the job completes with the documents of a
// run that lost nothing.
func TestEndToEndRestartResumesFromCache(t *testing.T) {
	texts := []string{"perovskite absorber layers", "graphene sheet growth", "zeolite pore sizes",
		"battery cathode fade", "catalyst surface sites", "polymer chain length"}
	run := func(stop bool) (*harness, *invLog, JobStats, []string) {
		inv := newInvLog()
		lib := countingLibrary(inv, 0)
		keyword, _ := lib.Get("keyword")
		gate := &stopMidBatch{Extractor: keyword, fired: !stop, parked: make(chan []string), release: make(chan struct{})}
		h := newHarnessCfg(t, []siteSpec{{name: "theta", workers: 1}}, scheduler.LocalPolicy{}, func(cfg *Config) {
			cfg.Library = extractors.NewLibrary(gate)
			cfg.Cache = cache.New(0)
			cfg.XtractBatchSize = len(texts)
			cfg.Retry = RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond}
		})
		for i, text := range texts {
			if err := h.sites["theta"].Write(fmt.Sprintf("/notes/n%d.txt", i), []byte(text)); err != nil {
				t.Fatal(err)
			}
		}
		site, _ := h.svc.Site("theta")
		gate.ep = site.ComputeEndpoint()
		var finished []string
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			if finished = <-gate.parked; finished == nil {
				return
			}
			ep, err := h.endpoint("ep-theta-2", 1)
			if err != nil {
				t.Error(err)
				return
			}
			gate.ep.Stop() // the running task is lost with its finished steps' results
			_ = h.svc.SwapCompute("theta", ep)
			_ = h.svc.RegisterExtractors()
		}()
		stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
			Site: "theta", Roots: []string{"/notes"}, Grouper: "single",
		}})
		close(gate.parked) // a run that never stopped reports nothing
		<-stopped
		close(gate.release) // the parked extraction ends on the dead endpoint
		if err != nil || stats.FamiliesDone != int64(len(texts)) || stats.StepsProcessed != int64(len(texts)) {
			t.Fatalf("stop=%v: stats = %+v, %v", stop, stats, err)
		}
		return h, inv, stats, finished
	}

	control, _, _, _ := run(false)
	h, inv, stats, finished := run(true)
	if len(finished) == 0 {
		t.Fatal("no task carried a second step to stop in")
	}
	for _, group := range finished {
		if n := inv.count(invKey(group, "keyword")); n != 1 {
			t.Errorf("step %s finished before the stop and was extracted %d times", group, n)
		}
	}
	if stats.TasksResubmitted == 0 || stats.CacheHits != int64(len(finished)) {
		t.Errorf("tasks resubmitted %d, cache hits %d; want the lost task's %d finished steps committed from the cache",
			stats.TasksResubmitted, stats.CacheHits, len(finished))
	}
	want := control.docs(t, len(texts))
	if got := h.docs(t, len(texts)); !docsEqual(got, want) {
		t.Fatalf("documents after the restart differ from the control's:\n got %v\nwant %v", got, want)
	}
}

// A file rewritten between two jobs ships its new metadata: nothing a
// worker keeps of an earlier run answers for different content.
func TestRerunShipsTheRewrittenFile(t *testing.T) {
	h := newHarness(t, []siteSpec{{name: "theta", workers: 2}}, scheduler.LocalPolicy{})
	files := seedScience(t, h.sites["theta"], "/mdf")
	repo := []journal.RepoSpec{{Site: "theta", Roots: []string{"/mdf"}, Grouper: "single"}}
	notes := func() string {
		t.Helper()
		for _, doc := range h.docs(t, files) {
			if bytes.Contains(doc, []byte(`"/mdf/exp2/notes.txt"`)) {
				return string(doc)
			}
		}
		t.Fatal("no document for notes.txt")
		return ""
	}
	if _, err := h.svc.RunJob(context.Background(), repo); err != nil {
		t.Fatal(err)
	}
	if doc := notes(); !strings.Contains(doc, "perovskite") {
		t.Fatalf("first job's notes document: %s", doc)
	}
	if err := h.sites["theta"].Write("/mdf/exp2/notes.txt", []byte("graphene transistor channels measured carefully")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.svc.RunJob(context.Background(), repo); err != nil {
		t.Fatal(err)
	}
	if doc := notes(); !strings.Contains(doc, "graphene") || strings.Contains(doc, "perovskite") {
		t.Fatalf("the second job shipped the first run's metadata for the rewritten file: %s", doc)
	}
}

// A job naming a site the service does not know is refused before it
// exists: nothing is journaled or listed, and no job ID is used up.
func TestRunJobUnknownSite(t *testing.T) {
	w := newWorld(t, []siteSpec{{name: "a", workers: 1}})
	w.jdir = newDevice()
	h := w.start(t, node{})
	if _, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{Site: "nope"}}); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("RunJob = %v; want ErrUnknownSite", err)
	}
	if recs := h.svc.JobRecords(); len(recs) != 0 {
		t.Fatalf("a refused job left records %+v", recs)
	}
	if n := h.jnl.Appends(journal.RecJobSubmitted); n != 0 {
		t.Fatalf("a refused job made %d job_submitted appends", n)
	}
	if err := h.sites["a"].Write("/d/f.txt", []byte("words here")); err != nil {
		t.Fatal(err)
	}
	job, err := h.svc.Submit(context.Background(), journal.JobSpec{Repos: []journal.RepoSpec{{Site: "a", Roots: []string{"/d"}, Grouper: "single"}}})
	if err != nil || job.ID != "job-1" {
		t.Fatalf("the next submission = %v, %v; want job-1", job, err)
	}
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestRunJobNoComputeAnywhere(t *testing.T) {
	h := newHarness(t, []siteSpec{{name: "petrel", workers: 0}}, scheduler.LocalPolicy{})
	if err := h.sites["petrel"].Write("/d/f.txt", []byte("words here")); err != nil {
		t.Fatal(err)
	}
	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "petrel",
		Roots:   []string{"/d"},
		Grouper: "single",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesFailed == 0 || stats.FamiliesDone != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestSitesListing(t *testing.T) {
	h := newHarness(t, []siteSpec{{name: "b", workers: 1}, {name: "a", workers: 0}}, nil)
	got := h.svc.Sites()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Sites = %v", got)
	}
	site, ok := h.svc.Site("a")
	if !ok {
		t.Fatal("site a missing")
	}
	if site.HasCompute() {
		t.Fatal("storage-only site reports compute")
	}
	if site.Store == nil {
		t.Fatal("site a has no store")
	}
}

func TestEndToEndDirectFetch(t *testing.T) {
	// River-style site: no shared disk, workers fetch each file from the
	// Drive-like home store at extraction time (no prefetch staging).
	h := newHarness(t, []siteSpec{
		{name: "gdrive", workers: 0},
		{name: "river", workers: 4},
	}, scheduler.LocalPolicy{})
	site, _ := h.svc.Site("river")
	site.DirectFetch = true
	seedScience(t, h.sites["gdrive"], "/docs")

	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "gdrive",
		Roots:   []string{"/docs"},
		Grouper: "single",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesDone == 0 || stats.FamiliesFailed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// Direct fetch must not stage anything through the prefetcher.
	if stats.BytesStaged != 0 {
		t.Fatalf("direct fetch staged %d bytes", stats.BytesStaged)
	}
	// Nothing landed under the stage directory.
	if _, err := h.sites["river"].Stat("/xtract-stage"); err == nil {
		t.Fatal("stage directory exists despite direct fetch")
	}
}

func TestExcludedExtractorFailsGracefully(t *testing.T) {
	// A site whose container runtime cannot run the keyword extractor
	// (Docker-only on a Singularity-only system): steps targeting it fail
	// without wedging the job.
	h := newHarness(t, []siteSpec{{name: "sing", workers: 2, exclude: []string{"keyword"}}}, scheduler.LocalPolicy{})
	_ = h.sites["sing"].Write("/d/notes.txt", []byte("free text that wants the keyword extractor"))
	_ = h.sites["sing"].Write("/d/data.csv", []byte("a,b\n1,2\n3,4\n"))
	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "sing",
		Roots:   []string{"/d"},
		Grouper: "single",
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The CSV family succeeds; the text family's keyword step exhausts
	// its retries (the extractor is not registered here) and the family
	// fails with a dead-letter record instead of looping.
	if stats.StepsFailed == 0 {
		t.Fatalf("excluded extractor did not fail its steps: %+v", stats)
	}
	if stats.FamiliesDone != 1 || stats.FamiliesFailed != 1 {
		t.Fatalf("families done = %d failed = %d, want 1/1", stats.FamiliesDone, stats.FamiliesFailed)
	}
	if stats.StepsDeadLettered == 0 {
		t.Fatalf("expected dead-lettered steps, got %+v", stats)
	}
	rec, err := record(h.svc, stats.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != registry.JobFailed {
		t.Fatalf("job state = %s, want FAILED", rec.State)
	}
	if len(rec.DeadLetters) == 0 {
		t.Fatalf("job record has no dead letters: %+v", rec)
	}
	dl := rec.DeadLetters[0]
	if dl.Kind != "step" || dl.Extractor != "keyword" || dl.Attempts == 0 {
		t.Fatalf("unexpected dead letter: %+v", dl)
	}
}

func TestEndToEndMultiRepoJob(t *testing.T) {
	// One job spanning two repositories on two sites, as in Listing 2's
	// two-endpoint extraction.
	h := newHarness(t, []siteSpec{
		{name: "anl", workers: 2},
		{name: "uchicago", workers: 2},
	}, scheduler.LocalPolicy{})
	seedScience(t, h.sites["anl"], "/science/data")
	seedScience(t, h.sites["uchicago"], "/other_science/papers")

	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{
		{Site: "anl", Roots: []string{"/science/data"},
			Grouper: "matio"},
		{Site: "uchicago", Roots: []string{"/other_science/papers"},
			Grouper: "single"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Crawl.FilesSeen != 12 {
		t.Fatalf("files = %d, want 12", stats.Crawl.FilesSeen)
	}
	if stats.FamiliesDone == 0 || stats.FamiliesFailed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// Both endpoints executed work locally (no cross-site staging under
	// LocalPolicy with local compute).
	anl, _ := h.svc.Site("anl")
	uc, _ := h.svc.Site("uchicago")
	if anl.Compute.TasksExecuted.Load() == 0 || uc.Compute.TasksExecuted.Load() == 0 {
		t.Fatalf("task split = %d/%d",
			anl.Compute.TasksExecuted.Load(), uc.Compute.TasksExecuted.Load())
	}
}

func TestStageCapacityFallbackAndExhaustion(t *testing.T) {
	// Petrel holds the data; river's staging budget is tiny, so families
	// overflow to jetstream; when jetstream also fills, families fail.
	h := newHarness(t, []siteSpec{
		{name: "petrel", workers: 0},
		{name: "river", workers: 2},
		{name: "jetstream", workers: 2},
	}, scheduler.LocalPolicy{})
	seedScience(t, h.sites["petrel"], "/data")
	river, _ := h.svc.Site("river")
	js, _ := h.svc.Site("jetstream")
	river.StageCapacityBytes = 64   // fits roughly one small family
	js.StageCapacityBytes = 1 << 20 // plenty

	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "petrel",
		Roots:   []string{"/data"},
		Grouper: "single",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesDone == 0 || stats.FamiliesFailed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if js.Compute.TasksExecuted.Load() == 0 {
		t.Fatal("overflow families never reached jetstream")
	}

	// Exhaust every site: all families must fail rather than wedge.
	h2 := newHarness(t, []siteSpec{
		{name: "petrel", workers: 0},
		{name: "river", workers: 2},
	}, scheduler.LocalPolicy{})
	seedScience(t, h2.sites["petrel"], "/data")
	r2, _ := h2.svc.Site("river")
	r2.StageCapacityBytes = 1 // nothing fits
	stats2, err := h2.svc.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "petrel",
		Roots:   []string{"/data"},
		Grouper: "single",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.FamiliesDone != 0 || stats2.FamiliesFailed == 0 {
		t.Fatalf("stats = %+v", stats2)
	}
}
