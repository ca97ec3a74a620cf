package core

// system_test.go is the one whole-system test. The contract (DESIGN §9,
// Contract and oracle): exactly-once effects — journal record, billing,
// cache write, destination document — over an at-least-once substrate.
// Each seed expands into one schedule: a topology, a fault plan, the tail
// armor on or off, an endpoint medic on or off and one churn event at a
// seeded journal append. One job runs through it to convergence, and then
// one oracle is asserted on what is left. A failing seed prints its
// schedule and the command that runs it alone.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/cache"
	"xtract/internal/cluster"
	"xtract/internal/fastjson"
	"xtract/internal/faultinject"
	"xtract/internal/journal"
	"xtract/internal/obs"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/tenant"
)

const (
	systemSeeds  = 96
	systemTenant = "sys"
	// Leases lapse and fail over well inside a seed's patience, but slowly
	// enough that a healthy node (ticking every beat TTL / 3) never loses
	// one by accident.
	systemLeaseTTL = 300 * time.Millisecond
	systemBeatTTL  = 250 * time.Millisecond
)

func TestSystem(t *testing.T) {
	for n := 0; n < systemSeeds; n++ {
		s := expand(n)
		t.Run(fmt.Sprintf("seed=%02d", n), func(t *testing.T) {
			t.Parallel()
			// Every goroutine the seed starts inherits the label: the leak
			// clause counts them.
			label := fmt.Sprintf("seed=%02d", n)
			pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("system", label)))
			r := &run{t: t, s: s, label: label}
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("schedule: %s; %s\nreproduce: go test -race -run 'TestSystem/%s' ./internal/core/", r.s, r.inj, label)
				}
			})
			r.setup()
			r.play()
			r.check()
		})
	}
}

// topology is where the data lives and where it can be extracted.
type topology int

const (
	oneSite   topology = iota // one compute site
	stageSite                 // a storage-only site, staged to a compute site
	twoSites                  // two compute sites: a hedge's second site
)

var topologyNames = [...]string{"one-site", "stage", "two-sites"}

func (tp topology) sites() []siteSpec {
	switch tp {
	case stageSite:
		return []siteSpec{{name: "petrel"}, {name: "river", workers: 3}}
	case twoSites:
		return []siteSpec{{name: "alpha", workers: 3}, {name: "beta", workers: 3}}
	}
	return []siteSpec{{name: "theta", workers: 4}}
}

// churn is the one event a schedule puts in the job's way.
type churn int

const (
	noChurn         churn = iota
	crashRestart          // the process dies at the append; the journal tail may be damaged
	gracefulRestart       // BeginShutdown, stop, close the journal, restart
	cancelRestart         // the user cancels; the process restarts
	crashUndurable        // the process dies with job_submitted's fsync held
	killOwner             // three nodes from here on
	killOwnerRestart
	cancelKillOwner
	killBystander
)

var churnNames = [...]string{"none", "crash-restart", "graceful-restart", "cancel-restart",
	"crash-before-durable-submit", "kill-owner", "kill-owner-restart", "cancel-kill-owner", "kill-bystander"}

var damageNames = [...]string{"none", "truncate", "bit-flip"}

type schedule struct {
	seed   int
	topo   topology
	churn  churn
	at     int64 // the journal append the churn fires at
	damage int   // crash-restart: what happens to the journal tail
	plan   *faultinject.Config
	armor  bool // hedging, breakers and, on odd seeds, a straggler budget
	medic  bool
	delay  time.Duration // per extraction, so that churn lands mid-job
	rng    *rand.Rand
}

// expand is the seed → schedule map. Seeds 0-23 are faults alone, 24-35
// faults under the tail armor, 36-59 crash-restart (a third each with an
// intact, a truncated and a bit-flipped tail), 60-83 the four cluster
// churns, 84-95 graceful restart, cancel-restart and a crash before the
// submission is durable. Odd churn seeds (alternate blocks of four in the
// cluster) add a fault plan to their churn, and the armor too on two
// compute sites.
func expand(n int) schedule {
	s := schedule{seed: n, topo: topology(n % 3), medic: n%2 == 0, rng: rand.New(rand.NewSource(int64(n)))}
	faults := true
	switch {
	case n < 24:
	case n < 36:
		s.topo, s.armor = twoSites, true
	case n < 60:
		s.churn, s.damage, s.topo = crashRestart, (n-36)%3, topology((n-36)/3%3)
		faults = n%2 == 1
	case n < 84:
		s.churn, s.topo = killOwner+churn((n-60)%4), topology((n-60)/4%3)
		faults = n/4%2 == 1
	default:
		s.churn = gracefulRestart + churn((n-84)/4)
		faults = n%2 == 1 && s.churn != crashUndurable
	}
	if faults {
		// Churn with faults on two compute sites is churn under the armor too.
		s.armor = s.armor || s.churn != noChurn && s.topo == twoSites
		plan := faultPlan(int64(n), s.rng, s.armor)
		s.plan = &plan
	}
	if s.churn != noChurn && s.churn != crashUndurable {
		s.delay = 8 * time.Millisecond
	}
	return s
}

// faultPlan draws a plan over every fault kind. Probabilities vary per
// seed, so the schedules cover quiet runs, single faults and pile-ups;
// every rule has a budget, so every plan is finite. Stragglers (the slow
// fault) join under the tail armor, which exists for them.
func faultPlan(seed int64, rng *rand.Rand, slow bool) faultinject.Config {
	p := func(max float64) float64 { return rng.Float64() * max }
	c := faultinject.Config{
		Seed:          seed,
		DispatchError: faultinject.Rule{Prob: p(0.3), Max: 10},
		HeartbeatDrop: faultinject.Rule{Prob: p(0.5), Max: 10},
		EndpointCrash: faultinject.Rule{Prob: p(0.15), Max: 1},
		TransferError: faultinject.Rule{Prob: p(0.4), Max: 3},
		TransferStall: faultinject.Rule{Prob: p(0.5), Max: 5},
		StallFor:      3 * time.Millisecond,
		ExtractError:  faultinject.Rule{Prob: p(0.3), Max: 6},
		ExtractPanic:  faultinject.Rule{Prob: p(0.2), Max: 3},
	}
	p(0.3) // unused: it keeps the later draws, and so each seed's schedule, where they are
	if slow {
		c.Slow, c.SlowFor = faultinject.Rule{Prob: 0.3 + p(0.4), Max: 20}, time.Duration(1+rng.Intn(4))*time.Millisecond
	}
	return c
}

func (s schedule) nodes() int {
	if s.churn >= killOwner {
		return 3
	}
	return 1
}

func (s schedule) budget() int {
	if s.armor && s.seed%2 == 1 {
		return 4
	}
	return 0
}

func (s schedule) String() string {
	out := fmt.Sprintf("seed=%02d topology=%s nodes=%d churn=%s", s.seed, topologyNames[s.topo], s.nodes(), churnNames[s.churn])
	if s.churn != noChurn {
		out += fmt.Sprintf("@append %d", s.at)
	}
	if s.churn == crashRestart {
		out += " tail=" + damageNames[s.damage]
	}
	return out + fmt.Sprintf(" faults=%v armor=%v straggler-budget=%d medic=%v delay=%v",
		s.plan != nil, s.armor, s.budget(), s.medic && s.plan != nil, s.delay)
}

// control is the fault-free, churn-free run of a topology: the documents
// every run of it is held to, the steps its job takes, and the journal
// records it appends (which bound a seed's churn point).
type control struct {
	docs    map[string][]byte
	steps   int64
	records int64
}

var controls [len(topologyNames)]struct {
	once sync.Once
	ctl  control
}

func controlOf(t *testing.T, topo topology) control {
	c := &controls[topo]
	c.once.Do(func() {
		r := &run{t: t, s: schedule{topo: topo}, w: systemWorld(t, topo)}
		stats, err := r.wait(r.submit(r.start("")))
		if err != nil || stats.FamiliesFailed != 0 || stats.StepsDeadLettered != 0 {
			t.Fatalf("control run not clean: %+v, %v", stats, err)
		}
		appends, _, _ := r.w.jnl.Stats()
		c.ctl = control{docs: r.w.docs(t, int(stats.FamiliesDone)), steps: stats.StepsProcessed, records: appends}
		r.w.teardown()
	})
	if c.ctl.records == 0 {
		t.Fatal("control run unavailable (failed in another seed)")
	}
	return c.ctl
}

// systemWorld is a topology's sites over the science corpus — twelve
// files whatever the topology, each at a path of its own, so that an
// invocation names its step — with its journal on a device.
func systemWorld(t *testing.T, topo topology) *world {
	w := newWorld(t, topo.sites())
	for _, spec := range w.specs {
		seedScience(t, w.sites[spec.name], "/data/"+spec.name)
	}
	if topo == oneSite {
		seedScience(t, w.sites["theta"], "/data/theta2")
	}
	w.jdir = newDevice()
	return w
}

// repos names every site's /data, grouped by the named grouper into one
// family per group, with deterministic IDs, so that documents are
// byte-identical run to run.
func (w *world) repos(grouper string) []journal.RepoSpec {
	var out []journal.RepoSpec
	for _, spec := range w.specs {
		out = append(out, journal.RepoSpec{Site: spec.name, Roots: []string{"/data"}, Grouper: grouper, NoMinTransfers: true})
	}
	return out
}

// device is the journal's disk, a MemFS: what a Sync wrote is what survives
// a crash. It can hold every fsync until held closes and, while lost is
// set, fail them — the process died with that batch in flight.
type device struct {
	journal.Dir
	disk *store.MemFS
	held chan struct{} // nil: fsyncs go straight through
	lost atomic.Bool
}

type deviceFile struct {
	journal.File
	d *device
}

func newDevice() *device {
	disk := store.NewMemFS("journal-disk", nil)
	return &device{Dir: journal.StoreDir(disk, "/wal"), disk: disk}
}

func (d *device) Create(name string) (journal.File, error) {
	f, err := d.Dir.Create(name)
	if err != nil {
		return nil, err
	}
	return deviceFile{File: f, d: d}, nil
}

func (f deviceFile) Sync() error {
	if f.d.held != nil {
		<-f.d.held
	}
	if f.d.lost.Load() {
		return errors.New("power lost")
	}
	return f.File.Sync()
}

// damage tears the newest segment's tail: flip=false truncates up to 20
// bytes (a torn write), flip=true flips one bit in its last 30 (media
// corruption). Tiny segments are left alone.
func (d *device) damage(t *testing.T, rng *rand.Rand, flip bool) {
	names, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, name := range names {
		if strings.HasPrefix(name, "seg-") && name > last {
			last = name
		}
	}
	if last == "" {
		return
	}
	data, err := d.Read(last)
	if err != nil || len(data) < 24 {
		return
	}
	data = append([]byte(nil), data...)
	if flip {
		data[len(data)-1-rng.Intn(30)] ^= 1 << uint(rng.Intn(8))
	} else {
		data = data[:len(data)-1-rng.Intn(20)]
	}
	if err := d.disk.Write("/wal/"+last, data); err != nil {
		t.Fatal(err)
	}
}

// run is one seed's world under its schedule, and what the oracle needs to
// know about how the churn went.
type run struct {
	t     *testing.T
	s     schedule
	label string
	w     *world
	ctl   control
	inj   *faultinject.Injector
	job   *Job     // as last submitted
	owner *harness // the life that submitted it
	// fired is set when the churn point came before the job's end,
	// cancelled when the user's cancel ended the job.
	fired, cancelled bool
	// durable names (invKey) every step the journal held at the churn;
	// seen is how often each life alive then had run each of them, after
	// the index of the first life started since. killed is the life the
	// churn ended.
	durable map[string]bool
	seen    map[*harness]map[string]int
	after   int
	killed  *harness
}

func (r *run) setup() {
	r.ctl = controlOf(r.t, r.s.topo)
	r.w = systemWorld(r.t, r.s.topo)
	// Skewed late, so that most churn finds steps durable, yet not only.
	r.s.at = 1 + max(r.s.rng.Int63n(r.ctl.records-1), r.s.rng.Int63n(r.ctl.records-1))
	switch {
	case r.s.churn == crashUndurable:
		// The last record before job_terminal: the job's work is all but
		// done, every record of it in the one unfinished batch.
		r.s.at = r.ctl.records - 1
		r.w.jdir.(*device).held = make(chan struct{})
	case r.s.nodes() > 1:
		jnl, err := journal.Open(r.w.jdir, journal.Options{})
		if err != nil {
			r.t.Fatal(err)
		}
		r.w.jnl = jnl
		r.w.coord = cluster.NewCoordinator(cluster.Options{LeaseTTL: systemLeaseTTL, HeartbeatTTL: systemBeatTTL, Journal: jnl})
	}
	if r.s.plan != nil {
		r.inj = faultinject.New(*r.s.plan)
	}
}

// start boots a node life with the schedule's faults and armor.
func (r *run) start(id string) *harness {
	return r.w.start(r.t, node{id: id, policy: scheduler.LocalPolicy{}, inv: newInvLog(), delay: r.s.delay,
		faults: r.inj, medic: r.s.medic && r.inj != nil, mut: r.configure})
}

func (r *run) configure(cfg *Config) {
	cfg.Cache = cache.New(0)
	cfg.Tenants = tenant.NewController(tenant.Config{TaskSlots: 64})
	cfg.Obs = obs.New(cfg.Clock)
	cfg.XtractBatchSize, cfg.FuncXBatchSize = 2, 2
	cfg.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		JitterSeed: int64(r.s.seed), JobBudget: 128}
	if r.s.armor {
		// Eager hedges over four-step tasks: a straggler whose other steps are
		// still open is not cancelled when one of them is won, so duplicate
		// completions reach the commit point's claim fence.
		cfg.Hedge = HedgePolicy{Enabled: true, Quantile: 0.5, Multiplier: 0.5, MinSamples: 2, MinDelay: 500 * time.Microsecond}
		cfg.Breakers = BreakerPolicy{Enabled: true, Window: 8, TripRatio: 0.6, Cooldown: 20 * time.Millisecond, HalfOpenProbes: 2}
		cfg.StragglerBudget = r.s.budget()
		cfg.XtractBatchSize = 4
	}
}

func (r *run) submit(h *harness) *Job {
	job, err := h.svc.Submit(h.ctx, journal.JobSpec{Tenant: systemTenant, Repos: r.w.repos("single")})
	if err != nil {
		r.t.Fatal(err)
	}
	r.job, r.owner = job, h
	return job
}

func (r *run) wait(job *Job) (JobStats, error) {
	select {
	case <-job.done:
	case <-time.After(60 * time.Second):
		r.t.Fatalf("job %s hung", job.ID)
	}
	return job.Wait()
}

// trigger closes the channel it returns at the journal's at-th append.
func (r *run) trigger() <-chan struct{} { return afterAppends(r.t, r.w.jnl, r.s.at) }

// reached waits for the churn point or the job's end and reports whether
// the point came first: a job can outrun it, and is then unchurned.
func (r *run) reached(point <-chan struct{}, job *Job) bool {
	select {
	case <-point:
		r.fired = true
	case <-job.done:
		select {
		case <-point:
			r.fired = true
		default:
		}
	case <-time.After(60 * time.Second):
		r.t.Fatalf("the job neither reached append %d nor ended", r.s.at)
	}
	return r.fired
}

// churned notes the churn: the steps durable now, and how often each live
// life has run each of them so far.
func (r *run) churned(steps map[string]journal.StepDone) {
	r.durable = make(map[string]bool)
	for _, sd := range steps {
		if sd.CacheKey != nil && fastjson.IsObject(sd.Metadata) {
			r.durable[invKey(sd.GroupID, sd.Extractor)] = true
		}
	}
	r.seen, r.after = make(map[*harness]map[string]int), len(r.w.lives)
	for _, h := range r.w.lives {
		if !h.dead {
			r.seen[h] = make(map[string]int)
			for key := range r.durable {
				r.seen[h][key] = h.inv.count(key)
			}
		}
	}
}

func (r *run) play() {
	switch r.s.churn {
	case noChurn:
		_, _ = r.wait(r.submit(r.start("")))
	case crashRestart:
		r.crash()
	case gracefulRestart, cancelRestart:
		r.stop()
	case crashUndurable:
		r.crashUndurable()
	default:
		r.churnCluster()
	}
}

// crash kills the process inside the at-th append, dropping every record
// not yet fsynced, damages the journal tail as the schedule says, and
// restarts.
func (r *run) crash() {
	h := r.start("")
	r.w.jnl.KillAtAppend(r.s.at)
	job := r.submit(h)
	r.reached(r.w.jnl.Killed(), job)
	r.w.jnl.Kill()
	r.w.jnl = nil
	h.kill()
	r.killed = h
	_, _ = r.wait(job)
	if r.s.damage > 0 {
		r.w.jdir.(*device).damage(r.t, r.s.rng, r.s.damage == 2)
	}
	r.restart()
}

// stop shuts the process down at the at-th append the way serve does on a
// signal — after a user's cancel, for cancel-restart — and restarts. A
// drained job must come back as live work, a cancelled one as CANCELLED.
func (r *run) stop() {
	h := r.start("")
	point := r.trigger()
	job := r.submit(h)
	r.reached(point, job)
	if r.s.churn == cancelRestart {
		h.svc.Cancel(job.ID)
		_, err := r.wait(job)
		r.cancelled = errors.Is(err, context.Canceled)
	}
	h.kill()
	r.killed = h
	_, err := r.wait(job)
	if err := r.w.jnl.Close(); err != nil {
		r.t.Fatalf("graceful journal close: %v", err)
	}
	r.w.jnl = nil
	st, status := r.restart()
	js := st.Jobs[job.ID]
	switch {
	case r.cancelled && (js == nil || !js.Cancelled || status.Cancelled != 1 || status.Resumed != 0):
		r.t.Fatalf("the cancellation did not survive the restart: %+v, %+v", js, status)
	case !r.cancelled && err != nil && (js == nil || js.Terminal || status.Resumed != 1):
		r.t.Fatalf("a drained job came back as %+v (%+v): shutdown must suspend it, not end it", js, status)
	}
}

// crashUndurable runs the whole job behind a held job_submitted fsync and
// kills the process inside that batch: nothing it did may be visible, and
// the client's retry is handed the same job ID over a clean slate.
func (r *run) crashUndurable() {
	dev := r.w.jdir.(*device)
	h := r.start("")
	r.w.jnl.KillAtAppend(r.s.at)
	submitted := make(chan *Job, 1)
	go func() {
		job, _ := h.svc.Submit(h.ctx, journal.JobSpec{Tenant: systemTenant, Repos: r.w.repos("single")})
		submitted <- job
	}()
	select {
	case <-r.w.jnl.Killed():
	case <-time.After(60 * time.Second):
		r.t.Fatal("kill point never reached behind the held fsync")
	}
	// The pump outlives the kill until the process ends: let it finish
	// every family, so that everything it could leak is ready to.
	eventually(r.t, "every family finished behind the held fsync",
		func() bool { return totals(h.svc).FamiliesDone >= int64(len(r.ctl.docs)) })
	h.kill()
	r.killed, r.fired = h, true
	eventually(r.t, "the killed job leaving the live table", func() bool { return liveJobs(h.svc) == 0 })
	dev.lost.Store(true)
	close(dev.held)
	job := <-submitted
	if _, err := job.Wait(); err == nil {
		r.t.Fatal("the job reported success without a durable submission")
	}
	if docs := snapshotDocs(r.t, r.w.dest); len(docs) != 0 {
		r.t.Fatalf("%d documents written by a job that was never durable", len(docs))
	}
	dev.lost.Store(false)
	r.w.jnl = nil
	if st, _ := r.restart(); len(st.Jobs) != 0 || st.LastSeq != 0 {
		r.t.Fatalf("the restarted journal knows %d jobs through seq %d, want nothing", len(st.Jobs), st.LastSeq)
	}
	if r.job.ID != job.ID {
		r.t.Fatalf("the retry got %s, want the lost job's ID %s again", r.job.ID, job.ID)
	}
}

// restart reopens the journal, starts the next life and runs recovery,
// which must account for every journaled job and seed every durable step;
// a job the journal lost is submitted again, as its client would.
func (r *run) restart() (*journal.State, RecoveryStatus) {
	jnl, err := journal.Open(r.w.jdir, journal.Options{})
	if err != nil {
		r.t.Fatal(err)
	}
	r.w.jnl = jnl
	st := jnl.Recovered()
	steps := make(map[string]journal.StepDone)
	for _, js := range st.Jobs {
		for k, sd := range js.Steps {
			steps[k] = sd
		}
	}
	r.churned(steps)
	h := r.start("")
	status, err := h.svc.Recover(h.ctx)
	if err != nil {
		r.t.Fatal(err)
	}
	if status.StepsReconciled != len(r.durable) {
		r.t.Errorf("recovery reconciled %d steps, the journal held %d", status.StepsReconciled, len(r.durable))
	}
	if len(st.Jobs) == 0 {
		_, _ = r.wait(r.submit(h))
	} else if status.Resumed+status.Terminal+status.Cancelled != len(st.Jobs) {
		r.t.Errorf("recovery lost jobs: %+v", status)
	}
	h.svc.RecoveryWait()
	return st, status
}

// churnCluster runs the job on the first of three nodes and, at the
// at-th append, kills its owner (and restarts it once a survivor has
// adopted the job), cancels the job and then kills its owner, or kills a
// bystander.
func (r *run) churnCluster() {
	n1, n2, _ := r.start("n1"), r.start("n2"), r.start("n3")
	point := r.trigger()
	job := r.submit(n1)
	if !r.reached(point, job) {
		return
	}
	journaled := func() map[string]journal.StepDone {
		js, _ := r.w.jnl.JobSnapshot(job.ID)
		if js == nil {
			return nil
		}
		return js.Steps
	}
	switch r.s.churn {
	case killOwner, killOwnerRestart:
		n1.kill()
		r.killed = n1
		// What the dead owner committed is in the shared journal, flushed
		// here: it is what a successor adopts, and must not run again.
		eventually(r.t, "the dead owner's pump exiting", func() bool { return liveJobs(n1.svc) == 0 })
		r.w.jnl.Compact()
		r.churned(journaled())
		if r.s.churn == killOwnerRestart {
			eventually(r.t, "a survivor adopting the job, or the job ending", func() bool {
				if l, held := r.w.coord.Holder(job.ID); held && l.Node != n1.id {
					return true
				}
				js, ok := r.w.jnl.JobSnapshot(job.ID)
				return ok && js.Terminal
			})
			r.start(n1.id)
		}
	case killBystander:
		r.churned(journaled())
		n2.kill()
		r.killed = n2
	case cancelKillOwner:
		n1.svc.Cancel(job.ID)
		_, err := r.wait(job)
		r.cancelled = errors.Is(err, context.Canceled)
		js, _ := r.converge()
		n1.kill()
		r.killed = n1
		// A lease TTL is ample for a survivor that wrongly took the job for
		// adoptable to act on it.
		time.Sleep(systemLeaseTTL)
		if js2, _ := r.converge(); js2.State != js.State {
			r.t.Fatalf("the terminal state %s did not survive the owner's death: %s", js.State, js2.State)
		}
	}
}

// converge waits for the job's terminal record in the journal's fold,
// reads the destination as the record lands (a job ends only once its
// documents are written), and then waits for the job to leave every live
// node's live-job table. A node journals a terminal state before it
// publishes it on the job's handle, so until then its handle may still
// answer the state before.
func (r *run) converge() (*journal.JobState, map[string][]byte) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		js, ok := r.w.jnl.JobSnapshot(r.job.ID)
		if ok && js.Terminal {
			docs := snapshotDocs(r.t, r.w.dest)
			for _, h := range r.w.lives {
				if !h.dead {
					eventually(r.t, "the job leaving "+h.id+"'s live-job table", func() bool { return h.svc.Job(r.job.ID) == nil })
				}
			}
			return js, docs
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("job %s never reached a terminal state: %+v", r.job.ID, js)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// check is the oracle.
func (r *run) check() {
	js, docs := r.converge()
	r.t.Logf("%s → %s; churned=%v durable=%d; %s", r.s, js.State, r.fired, len(r.durable), r.inj)
	switch {
	case r.cancelled != (js.State == string(registry.JobCancelled)):
		r.t.Fatalf("the job ended %s; the user's cancel landed: %v", js.State, r.cancelled)
	case r.s.plan == nil && !r.cancelled && js.State != string(registry.JobComplete):
		r.t.Fatalf("a fault-free job ended %s (%s)", js.State, js.Err)
	}
	holder, rec := r.checkRegistry(js)
	r.checkAccounts(js, holder, rec)
	r.checkDocs(js, rec, docs)
	r.checkRerun()
	r.checkCached(js, holder)
	r.checkLeaks()
}

// checkRegistry: one terminal state. The fold and each live node's job
// view agree: every live node answers for the job with the journal's
// terminal state and error. At most one live node holds the job — its own
// handle answers, having run the job to its end, or it recovered the
// outcome from a journal it opened later — flagged recovered unless it is
// the life that submitted it; none does only when the node that ended the
// job has died since.
func (r *run) checkRegistry(js *journal.JobState) (*harness, registry.JobRecord) {
	var holder *harness
	var held registry.JobRecord
	diedHolding := false
	for _, h := range r.w.lives {
		// Live first: a job that leaves the live table between the two
		// lookups answers from its handle with its stats.
		own := h.svc.Job(r.job.ID) != nil
		v, ok := h.svc.LookupJob(r.job.ID)
		rec := v.Record
		holds := ok && rec.State.Terminal() && (own || v.Stats != nil || rec.Recovered)
		if h.dead {
			diedHolding = diedHolding || holds && string(rec.State) == js.State
			continue
		}
		if !ok || string(rec.State) != js.State || rec.Err != js.Err {
			r.t.Errorf("%q answers %s (%q), known %v; the journal's fold holds %s (%q)",
				h.id, rec.State, rec.Err, ok, js.State, js.Err)
		}
		if !holds {
			continue
		}
		if holder != nil {
			r.t.Errorf("both %q and %q hold the job terminal", holder.id, h.id)
		}
		holder, held = h, rec
		if rec.Recovered != (h != r.owner) {
			r.t.Errorf("the record on %q is flagged recovered=%v; it submitted the job: %v", h.id, rec.Recovered, h == r.owner)
		}
	}
	if holder == nil && !diedHolding {
		r.t.Errorf("no node holds the job's terminal state %s", js.State)
	}
	return holder, held
}

// checkAccounts: every life billed the steps it processed; the holder's
// record explains its state; and where one pump ran the job from start to
// end, every family it emitted ended, and a complete job took exactly the
// control's steps.
func (r *run) checkAccounts(js *journal.JobState, holder *harness, rec registry.JobRecord) {
	for _, h := range r.w.lives {
		if u, steps := h.usage(), totals(h.svc).StepsProcessed; u.StepsProcessed != steps {
			r.t.Errorf("%q billed %d steps and processed %d", h.id, u.StepsProcessed, steps)
		}
	}
	if holder == nil {
		return
	}
	u := holder.usage()
	stepLetters := 0
	for _, dl := range rec.DeadLetters {
		if dl.Kind == "step" {
			stepLetters++
		}
	}
	switch registry.JobState(js.State) {
	case registry.JobComplete:
		if len(rec.DeadLetters) != 0 {
			r.t.Errorf("COMPLETE with dead letters: %+v", rec.DeadLetters)
		}
	case registry.JobFailed:
		if len(rec.DeadLetters) == 0 || rec.Err == "" {
			r.t.Errorf("FAILED without a dead-letter report (%q): %+v", rec.Err, rec.DeadLetters)
		}
	case registry.JobDegraded:
		if stepLetters == 0 || stepLetters > r.s.budget() || u.JobsDegraded != 1 {
			r.t.Errorf("DEGRADED with %d dead-lettered steps against a budget of %d, tenant JobsDegraded %d",
				stepLetters, r.s.budget(), u.JobsDegraded)
		}
	}
	if u.JobsStarted != 1 || js.State == string(registry.JobCancelled) {
		return
	}
	done, failed := totals(holder.svc).FamiliesDone, totals(holder.svc).FamiliesFailed
	if emitted := holder.svc.crawlTotals.FamiliesEmitted.Load(); done+failed != emitted {
		r.t.Errorf("families done %d + failed %d != emitted %d", done, failed, emitted)
	}
	steps := totals(holder.svc).StepsProcessed
	if steps > r.ctl.steps || js.State == string(registry.JobComplete) && (failed != 0 || steps != r.ctl.steps) {
		r.t.Errorf("%s with %d families failed and %d steps committed; the control has %d", js.State, failed, steps, r.ctl.steps)
	}
}

func (h *harness) usage() tenant.Usage {
	u, _ := h.svc.cfg.Tenants.UsageFor(systemTenant)
	return u
}

// checkDocs: when its terminal record lands, a complete job's documents
// are the control's, byte for byte; any other job's are a byte-identical
// subset of them, but for the families its dead letters name (a degraded
// family ships what it has).
func (r *run) checkDocs(js *journal.JobState, rec registry.JobRecord, docs map[string][]byte) {
	if js.State == string(registry.JobComplete) {
		if !docsEqual(docs, r.ctl.docs) {
			r.t.Fatalf("the job ended COMPLETE with %d documents, unlike the control's %d", len(docs), len(r.ctl.docs))
		}
		return
	}
	partial := make(map[string]bool)
	for _, dl := range rec.DeadLetters {
		partial[dl.FamilyID] = true
	}
	for p, doc := range docs {
		var d struct{ Family string }
		_ = json.Unmarshal(doc, &d)
		if want, ok := r.ctl.docs[p]; !ok || !bytes.Equal(doc, want) && !partial[d.Family] {
			r.t.Errorf("document %s is not the control's", p)
		}
	}
}

// checkRerun: no step durable at the churn ran again on any life that
// survived it or started after it — recovery and failover replay them from
// the journal; and where the user cancels, no life but the submitter's
// runs anything for the job, cancelled or already ended.
func (r *run) checkRerun() {
	for i, h := range r.w.lives {
		base, alive := r.seen[h]
		if h == r.killed || !alive && i < r.after {
			continue
		}
		for key := range r.durable {
			if n := h.inv.count(key) - base[key]; n > 0 {
				r.t.Errorf("durable step %q ran %d more times on %q after the churn", key, n, h.id)
			}
		}
		if cancels := r.s.churn == cancelRestart || r.s.churn == cancelKillOwner; cancels && h != r.owner && h.inv.total() != 0 {
			r.t.Errorf("%q ran %d extractions for a job its user cancelled", h.id, h.inv.total())
		}
	}
}

// checkCached: every step a complete job committed is in the result cache
// of the holder that ran it — filed by the worker that extracted it, or
// seeded from the journal by recovery — so the same repositories run again
// as a second job extract nothing and leave the control's documents as
// they are. A holder that only replayed the job's terminal record never
// ran it: the cache the job filled died with the process that ran it.
func (r *run) checkCached(js *journal.JobState, holder *harness) {
	if js.State != string(registry.JobComplete) || holder == nil || holder.usage().JobsStarted == 0 {
		return
	}
	before := holder.inv.total()
	_, _ = r.wait(r.submit(holder))
	if n := holder.inv.total() - before; n != 0 {
		r.t.Errorf("the second job over the same repositories ran %d extractions", n)
	}
	r.w.docsAre(r.t, r.ctl.docs)
}

// checkLeaks: with the job ended, no lease is held and no live life keeps
// a task or transfer record; with every life ended, none keeps a job, a
// tenant slot or a pipeline entry, and the seed's goroutines are gone.
func (r *run) checkLeaks() {
	if r.w.coord != nil {
		eventually(r.t, "the job's lease released", func() bool { _, held := r.w.coord.Holder(r.job.ID); return !held })
	}
	for _, h := range r.w.lives {
		if !h.dead {
			eventually(r.t, "no task or transfer record kept", func() bool {
				return h.fsvc.TaskRecords() == 0 && h.fabric.JobRecords() == 0
			})
		}
	}
	r.w.teardown()
	for _, h := range r.w.lives {
		eventually(r.t, "the live-job table emptying", func() bool { return liveJobs(h.svc) == 0 })
		if u := h.usage(); u.InFlightTasks != 0 || u.ActiveJobs != 0 {
			r.t.Errorf("%q holds %d task slots and %d job slots", h.id, u.InFlightTasks, u.ActiveJobs)
		}
		if d := h.svc.obsPipelineDepth.Value(); d != 0 {
			r.t.Errorf("%q: xtract_pipeline_depth %.0f with every job ended", h.id, d)
		}
	}
	eventually(r.t, "the seed's goroutines exiting", func() bool { return seedGoroutines(r.label) == 0 })
}

// seedGoroutines counts the goroutines still running under the seed's
// label but the caller.
func seedGoroutines(label string) int {
	var b bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&b, 1)
	profile := b.String()
	n := 0
	for _, stack := range strings.Split(profile[strings.Index(profile, "\n")+1:], "\n\n") {
		if strings.Contains(stack, `"system":"`+label+`"`) && !strings.Contains(stack, "pprof.writeGoroutine") {
			var c int
			_, _ = fmt.Sscanf(stack, "%d @", &c)
			n += c
		}
	}
	return n
}
