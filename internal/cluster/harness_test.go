package cluster_test

// harness_test.go is the in-process multi-node harness: it boots 3–5
// xtract nodes over shared fakes — one journal, one site data store, one
// destination store, one results queue (the paper's durable SQS layer:
// records awaiting validation must survive the extracting node's death),
// one Coordinator — and proves the lease-based ownership design end to
// end. A node "dies" the way a real process
// does (its goroutines stop; nothing graceful is journaled), its leases
// expire, and the ring successor's failover scan adopts the orphaned
// job: journaled step completions replay from the content-addressed
// cache instead of re-dispatching FaaS tasks, and the destination ends
// byte-identical to an unkilled control run.
//
// The companion chaos suite (cluster_chaos_test.go) runs the same
// harness under 24 seeded kill schedules.

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"xtract/internal/cache"
	"xtract/internal/clock"
	"xtract/internal/cluster"
	"xtract/internal/core"
	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/journal"
	"xtract/internal/queue"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/transfer"
	"xtract/internal/validate"
)

// Cluster timing for the harness: leases must lapse and fail over well
// inside a test's patience, but slowly enough that a healthy node (tick
// = TTL/3 ≈ 100ms) never loses one by accident.
const (
	harnessLeaseTTL = 300 * time.Millisecond
	harnessBeatTTL  = 250 * time.Millisecond
)

// invLog records extractor invocations keyed by group and extractor —
// the fake-FaaS invocation counter the exactly-once assertions read.
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
// (cache hits never reach Extract).
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

// startJob submits a job and returns its ID and where its error will
// arrive once it has ended.
func startJob(t *testing.T, svc *core.Service, ctx context.Context, repos []core.RepoSpec) (string, chan error) {
	t.Helper()
	job, err := svc.Submit(ctx, repos, core.JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := job.Wait()
		done <- err
	}()
	return job.ID, done
}

func chaosRepos(inv *invLog, delay time.Duration) []core.RepoSpec {
	return []core.RepoSpec{{
		SiteName:    "site",
		Roots:       []string{"/data"},
		Grouper:     crawler.SingleFileGrouper(countingLibrary(inv, delay)),
		GrouperName: "single",
		// Deterministic family IDs → destination doc paths and contents
		// are identical run to run, enabling byte-equality vs the control.
		NoMinTransfers: true,
	}}
}

// seedChaosCorpus writes the two-directory science corpus (12 files).
func seedChaosCorpus(t *testing.T) *store.MemFS {
	t.Helper()
	fs := store.NewMemFS("site", nil)
	for _, root := range []string{"/data/mdf", "/data/mdf2"} {
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
	}
	return fs
}

// chaosCluster is the shared substrate every node of one test cluster
// runs against: what survives any single node's death.
type chaosCluster struct {
	coord  *cluster.Coordinator
	jnl    *journal.Journal
	dataFS *store.MemFS
	dest   *store.MemFS
	// results is the shared validation queue: like its SQS counterpart it
	// outlives any one node, so completions a dead node extracted but had
	// not yet validated are drained by the survivors' validators.
	results *queue.Queue

	mu    sync.Mutex
	nodes map[string]*chaosNode
}

// chaosNode is one in-process "serve node": everything node-local —
// registry, queues, endpoint, cache, validation — dies with it.
type chaosNode struct {
	id       string
	node     *cluster.Node
	svc      *core.Service
	reg      *registry.Registry
	valsvc   *validate.Service
	inv      *invLog
	ctx      context.Context
	cancel   context.CancelFunc
	loopDone chan struct{}
	dead     bool
}

func newChaosCluster(t *testing.T) *chaosCluster {
	t.Helper()
	clk := clock.NewReal()
	jdir, err := journal.OSDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(jdir, journal.Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	cl := &chaosCluster{
		jnl:     jnl,
		dataFS:  seedChaosCorpus(t),
		dest:    store.NewMemFS("user-dest", nil),
		results: queue.New("validation-results", clk),
		nodes:   make(map[string]*chaosNode),
	}
	cl.coord = cluster.NewCoordinator(cluster.Options{
		Clock:        clk,
		LeaseTTL:     harnessLeaseTTL,
		HeartbeatTTL: harnessBeatTTL,
		Journal:      jnl,
	})
	t.Cleanup(func() {
		cl.mu.Lock()
		nodes := make([]*chaosNode, 0, len(cl.nodes))
		for _, n := range cl.nodes {
			nodes = append(nodes, n)
		}
		cl.mu.Unlock()
		for _, n := range nodes {
			n.kill()
		}
		_ = jnl.Close()
	})
	return cl
}

// startNode boots one node against the cluster's shared substrate and
// starts its maintenance loop (heartbeat, lease renewal, failover scan).
func (cl *chaosCluster) startNode(t *testing.T, id string, delay time.Duration) *chaosNode {
	t.Helper()
	clk := clock.NewReal()
	inv := newInvLog()
	node := cluster.NewNode(cl.coord, id, "mem://"+id)
	reg := registry.New(clk, 0)
	reg.SetIDPrefix(id)
	fsvc := faas.NewService(clk, faas.Costs{})
	fabric := transfer.NewFabric(clk)
	_, prefetch, prefetchDone, _ := core.NewQueues(clk)
	svc := core.New(core.Config{
		Clock: clk, FaaS: fsvc, Fabric: fabric,
		Registry:      reg,
		Library:       countingLibrary(inv, delay),
		PrefetchQueue: prefetch,
		PrefetchDone:  prefetchDone, ResultQueue: cl.results,
		Policy:     scheduler.LocalPolicy{},
		Checkpoint: true,
		Cache:      cache.New(0),
		Journal:    cl.jnl,
		Cluster:    node,
	})
	ctx, cancel := context.WithCancel(context.Background())
	fabric.AddEndpoint("site", cl.dataFS)
	ep := faas.NewEndpoint("ep-site-"+id, 4, clk)
	fsvc.RegisterEndpoint(ep)
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	svc.AddSite(&core.Site{
		Name: "site", Store: cl.dataFS, TransferID: "site",
		Compute: ep, StagePath: "/xtract-stage",
	})
	if err := svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}
	pf := transfer.NewPrefetcher(fabric, prefetch, prefetchDone, clk)
	go pf.Run(ctx, 2)
	valsvc := validate.NewService(validate.Passthrough{}, cl.results, cl.dest)
	go valsvc.Run(ctx)

	n := &chaosNode{
		id: id, node: node, svc: svc, reg: reg, valsvc: valsvc, inv: inv,
		ctx: ctx, cancel: cancel, loopDone: make(chan struct{}),
	}
	go func() {
		defer close(n.loopDone)
		node.Run(ctx, func(c context.Context, lost []string) {
			for _, id := range lost {
				svc.Cancel(id)
			}
			svc.FailoverScan(c)
		})
	}()
	cl.mu.Lock()
	cl.nodes[id] = n
	cl.mu.Unlock()
	return n
}

// kill models a node process dying: BeginShutdown first so the
// interrupted pump suspends instead of journaling a terminal record
// (the same suppression the SIGKILL'd process would get by never
// running), then every goroutine stops. The node's leases are NOT
// released — they expire, which is exactly how the survivors learn the
// node is gone.
func (n *chaosNode) kill() {
	if n.dead {
		return
	}
	n.dead = true
	n.svc.BeginShutdown()
	n.cancel()
	<-n.loopDone
}

// alive lists the nodes not yet killed.
func (cl *chaosCluster) alive() []*chaosNode {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var out []*chaosNode
	for _, n := range cl.nodes {
		if !n.dead {
			out = append(out, n)
		}
	}
	return out
}

// drainAlive synchronously validates queued records on every live node.
func (cl *chaosCluster) drainAlive() {
	for _, n := range cl.alive() {
		n.valsvc.Drain()
	}
}

// snapshotDocs reads every validated document at the destination.
func snapshotDocs(t *testing.T, dest *store.MemFS) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	infos, err := dest.List("/metadata")
	if err != nil {
		return out
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

// waitTerminal polls the shared journal's live fold until jobID is
// terminal, draining live validators as it goes.
func (cl *chaosCluster) waitTerminal(t *testing.T, jobID string, timeout time.Duration) *journal.JobState {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		cl.drainAlive()
		if js, ok := cl.jnl.JobSnapshot(jobID); ok && js.Terminal {
			return js
		}
		if time.Now().After(deadline) {
			js, _ := cl.jnl.JobSnapshot(jobID)
			t.Fatalf("job %s never reached a terminal state: %+v", jobID, js)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitDocs drains live validators until the destination matches want.
func (cl *chaosCluster) waitDocs(t *testing.T, want map[string][]byte, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		cl.drainAlive()
		if docsEqual(snapshotDocs(t, cl.dest), want) {
			return
		}
		if time.Now().After(deadline) {
			got := snapshotDocs(t, cl.dest)
			t.Fatalf("destination never converged: %d docs vs control %d", len(got), len(want))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// chaosControl is the single-node, unkilled ground truth the chaos runs
// are compared against: destination documents, extractor invocation
// count, and total journal appends (which bounds seeded kill points).
type chaosControlResult struct {
	docs    map[string][]byte
	steps   int
	records int64
}

var (
	chaosControlOnce sync.Once
	chaosControlRes  chaosControlResult
)

func chaosControlRun(t *testing.T) chaosControlResult {
	t.Helper()
	chaosControlOnce.Do(func() {
		cl := newChaosCluster(t)
		n1 := cl.startNode(t, "n1", 0)
		stats, err := n1.svc.RunJob(n1.ctx, chaosRepos(n1.inv, 0))
		if err != nil {
			t.Fatalf("control run: %v", err)
		}
		if stats.FamiliesFailed != 0 || stats.StepsDeadLettered != 0 {
			t.Fatalf("control run not clean: %+v", stats)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			n1.valsvc.Drain()
			docs := snapshotDocs(t, cl.dest)
			if len(docs) >= int(stats.FamiliesDone) {
				appends, _, _ := cl.jnl.Stats()
				chaosControlRes = chaosControlResult{docs: docs, steps: n1.inv.total(), records: appends}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("control validation stalled")
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
	if chaosControlRes.records == 0 {
		t.Fatal("control run unavailable (failed in another test)")
	}
	return chaosControlRes
}

// journaledSteps lists the step keys the journal holds as completed for
// jobID right now — the completions that must never re-run anywhere.
func (cl *chaosCluster) journaledSteps(jobID string) map[string]bool {
	out := make(map[string]bool)
	js, ok := cl.jnl.JobSnapshot(jobID)
	if !ok {
		return out
	}
	for _, sd := range js.Steps {
		if sd.CacheKey != nil && len(sd.Metadata) > 0 {
			out[invKey(sd.GroupID, sd.Extractor)] = true
		}
	}
	return out
}

// TestClusterFailoverMidDispatch is the tentpole proof: a 3-node
// cluster, a job running on its submitting node, and that node killed
// mid-dispatch with steps both journaled and in flight. The job must
// converge on a surviving node — byte-identical destination, zero
// re-invocation of any journaled completion (the cached step results
// replay instead of re-dispatching FaaS tasks), and the job terminal
// exactly once.
func TestClusterFailoverMidDispatch(t *testing.T) {
	control := chaosControlRun(t)
	cl := newChaosCluster(t)
	// Step completions nobody waits on reach the journal with the next
	// waited batch or after its age bound (≤ 10 ms); steps are slow enough
	// that some are durable while more are still to come.
	delay := 20 * time.Millisecond
	n1 := cl.startNode(t, "n1", delay)
	n2 := cl.startNode(t, "n2", delay)
	n3 := cl.startNode(t, "n3", delay)

	jobID, jobDone := startJob(t, n1.svc, n1.ctx, chaosRepos(n1.inv, delay))

	// Wait until the job is demonstrably mid-dispatch: some completions
	// journaled, more still to come.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if js, ok := cl.jnl.JobSnapshot(jobID); ok && len(js.Steps) >= 3 && !js.Terminal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached mid-dispatch")
		}
		time.Sleep(time.Millisecond)
	}
	journaled := cl.journaledSteps(jobID)

	killAt := time.Now()
	n1.kill()
	select {
	case <-jobDone:
	case <-time.After(30 * time.Second):
		t.Fatal("submitter's job call did not observe the kill")
	}

	js := cl.waitTerminal(t, jobID, 30*time.Second)
	failover := time.Since(killAt)
	if js.State != string(registry.JobComplete) {
		t.Fatalf("job converged to %s, want COMPLETE", js.State)
	}

	// The job must have failed over: exactly one survivor adopted it (the
	// dead submitter cannot have finished it).
	adopters := 0
	var adopter *chaosNode
	for _, n := range []*chaosNode{n2, n3} {
		if rec, err := n.reg.Job(jobID); err == nil {
			adopters++
			adopter = n
			if !rec.Recovered {
				t.Errorf("adopter %s record not flagged recovered", n.id)
			}
			if rec.State != registry.JobComplete {
				t.Errorf("adopter %s record state %s", n.id, rec.State)
			}
		}
	}
	if adopters != 1 {
		t.Fatalf("job adopted by %d survivors, want exactly 1", adopters)
	}
	t.Logf("failover: n1 killed with %d/%d steps journaled; %s adopted %s; terminal after %v",
		len(journaled), control.steps, adopter.id, jobID, failover.Round(time.Millisecond))

	// Zero duplicate FaaS invocations: every completion that was in the
	// journal at kill time replays from cache on the adopter — the fake
	// FaaS invocation counters on both survivors must not show it.
	for key := range journaled {
		if n := n2.inv.count(key) + n3.inv.count(key); n > 0 {
			t.Errorf("journaled step %q re-invoked %d times after failover", key, n)
		}
	}

	// Byte-identical convergence against the unkilled control.
	cl.waitDocs(t, control.docs, 30*time.Second)

	// The lease is released shortly after the adopter records the
	// terminal state (the pump's defer runs once its shards drain).
	releaseDeadline := time.Now().Add(5 * time.Second)
	for {
		l, held := cl.coord.Holder(jobID)
		if !held {
			break
		}
		if time.Now().After(releaseDeadline) {
			t.Fatalf("terminal job still leased by %s", l.Node)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The lease goes after the pump's teardown and before the job leaves
	// its node's live table: wait for that last step, on every node.
	for _, n := range []*chaosNode{n1, n2, n3} {
		for deadline := time.Now().Add(5 * time.Second); n.svc.Job(jobID) != nil; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("node %s still holds the terminal job in its live table", n.id)
			}
		}
	}
}

// TestRecoverIsLeaseAware pins the lease-aware restart path (the
// Service.Recover fix): a node replaying a shared journal must not
// re-adopt a live job another node owns — it reports it foreign — and
// must still resume jobs it can lease (unleased, or its own expired
// lease).
func TestRecoverIsLeaseAware(t *testing.T) {
	clk := clock.NewFake(time.Unix(1700000000, 0))
	jdir, err := journal.OSDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(jdir, journal.Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	spec := &journal.JobSpec{Repos: []journal.RepoSpec{{
		Site: "site", Roots: []string{"/data"}, Grouper: "single", NoMinTransfers: true,
	}}}
	// owned-elsewhere: n2 holds a live lease (epoch 7, long TTL).
	appendAll(t, jnl,
		journal.Record{Type: journal.RecJobSubmitted, JobID: "job-n2-1", Spec: spec},
		journal.Record{Type: journal.RecLeaseAcquired, JobID: "job-n2-1", Node: "n2", Epoch: 7, TTLMS: 3600_000},
		// orphaned: n3's lease has already expired by replay time.
		journal.Record{Type: journal.RecJobSubmitted, JobID: "job-n3-1", Spec: spec},
		journal.Record{Type: journal.RecLeaseAcquired, JobID: "job-n3-1", Node: "n3", Epoch: 4, TTLMS: 1},
	)
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second) // past n3's TTL, inside n2's

	jnl2, err := journal.Open(jdir, journal.Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()

	coord := cluster.NewCoordinator(cluster.Options{Clock: clk, LeaseTTL: time.Hour})
	node := cluster.NewNode(coord, "n1", "mem://n1")
	inv := newInvLog()
	fsvc := faas.NewService(clk, faas.Costs{})
	fabric := transfer.NewFabric(clk)
	_, prefetch, prefetchDone, results := core.NewQueues(clk)
	svc := core.New(core.Config{
		Clock: clk, FaaS: fsvc, Fabric: fabric,
		Registry:      registry.New(clk, 0),
		Library:       countingLibrary(inv, 0),
		PrefetchQueue: prefetch,
		PrefetchDone:  prefetchDone, ResultQueue: results,
		Policy:  scheduler.LocalPolicy{},
		Journal: jnl2,
		Cluster: node,
	})
	dataFS := store.NewMemFS("site", nil)
	fabric.AddEndpoint("site", dataFS)
	ep := faas.NewEndpoint("ep-site", 1, clk)
	fsvc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	svc.AddSite(&core.Site{Name: "site", Store: dataFS, TransferID: "site", Compute: ep, StagePath: "/xtract-stage"})
	if err := svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}

	status, err := svc.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.Foreign != 1 || status.Resumed != 1 {
		t.Fatalf("recovery = %+v, want 1 foreign + 1 resumed", status)
	}
	for _, rj := range status.Jobs {
		switch rj.JobID {
		case "job-n2-1":
			if rj.Disposition != "foreign" || rj.Owner != "n2" {
				t.Errorf("live-leased job disposition = %+v, want foreign owned by n2", rj)
			}
			if node.HoldsLive("job-n2-1") {
				t.Error("restarting node stole a live lease")
			}
		case "job-n3-1":
			if rj.Disposition != "resumed" {
				t.Errorf("orphaned job disposition = %+v, want resumed", rj)
			}
			// The adopted lease must fence the dead owner's journaled epoch.
			if e := node.HeldEpoch("job-n3-1"); e <= 4 {
				t.Errorf("adopted lease epoch %d does not fence journaled epoch 4", e)
			}
		}
	}
	svc.RecoveryWait()
}

func appendAll(t *testing.T, jnl *journal.Journal, recs ...journal.Record) {
	t.Helper()
	for _, rec := range recs {
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}
