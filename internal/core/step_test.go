package core

// step_test.go holds the step state machine (step.go) to its transition
// table: every (phase, event) pair lands in the stated phase and runs
// exactly the stated effects, counted by a recording journal hook, a real
// tenant controller and a cache whose persistent layer counts writes —
// so "effects run once" is asserted, not inferred from a job's totals.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/cache"
	"xtract/internal/clock"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/journal"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/tenant"
	"xtract/internal/transfer"
)

// countingStore counts the writes the cache's persistent layer makes: one
// per Cache.PutRaw.
type countingStore struct {
	store.Store
	writes atomic.Int64
}

func (c *countingStore) Write(path string, data []byte) error {
	c.writes.Add(1)
	return c.Store.Write(path, data)
}

// machine is one pump on a fake clock with every effect sink recording.
// Its site's endpoint is registered but never started: dispatched steps
// reach the fabric and stay there, and the test plays the shards' part by
// handing the pump hand-built events.
type machine struct {
	t       *testing.T
	clk     *clock.Fake
	svc     *Service
	p       *pump
	cache   *cache.Cache
	disk    *countingStore
	tenants *tenant.Controller
	mu      sync.Mutex
	journal map[string]int // accepted records by type
}

func newMachine(t *testing.T, mut func(*Config)) *machine {
	t.Helper()
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	m := &machine{t: t, clk: clk, journal: make(map[string]int)}
	m.disk = &countingStore{Store: store.NewMemFS("cache-disk", nil)}
	m.cache = cache.NewPersistent(0, m.disk, "/cache")
	m.tenants = tenant.NewController(tenant.Config{Clock: clk})
	jnl, err := journal.Open(journal.StoreDir(store.NewMemFS("journal-disk", nil), "/wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fsvc := faas.NewService(clk, faas.Costs{})
	_, prefetch, prefetchDone, results := NewQueues(clk)
	cfg := Config{
		Clock: clk, FaaS: fsvc, Fabric: transfer.NewFabric(clk),
		Registry: registry.New(clk, 0), Library: extractors.DefaultLibrary(),
		PrefetchQueue: prefetch, PrefetchDone: prefetchDone, ResultQueue: results,
		Cache: m.cache, Journal: jnl, Tenants: m.tenants,
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Millisecond, JitterFrac: 0, JobBudget: 8},
	}
	if mut != nil {
		mut(&cfg)
	}
	m.svc = New(cfg)
	jnl.Observe(func(recType string) {
		m.mu.Lock()
		m.journal[recType]++
		m.mu.Unlock()
	}, nil)
	for _, name := range []string{"x", "y"} {
		ep := faas.NewEndpoint("ep-"+name, 1, clk)
		fsvc.RegisterEndpoint(ep)
		m.svc.AddSite(&Site{Name: name, Store: store.NewMemFS(name, nil), TransferID: name,
			Compute: ep, StagePath: "/stage"})
	}
	if err := m.svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}
	m.p = newPump(m.svc, m.svc.cfg.Registry.CreateJob("", []string{"x"}, clk.Now()), "default", false, nil)
	var cancel context.CancelFunc
	m.p.jobCtx, cancel = context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		m.p.shardWG.Wait()
		_ = jnl.Close()
	})
	return m
}

// family returns a running family on site x with n single-file keyword
// groups, every step taken into the step table and still pending.
func (m *machine) family(id string, n int) *famState {
	fam := family.Family{ID: id, Store: "x", BasePath: "/d", FileMeta: map[string]family.FileMeta{}}
	for i := 0; i < n; i++ {
		f := fmt.Sprintf("/d/%s-%d.txt", id, i)
		fam.Files = append(fam.Files, f)
		fam.Groups = append(fam.Groups, family.Group{ID: fmt.Sprintf("g%d", i), Files: []string{f}, Extractor: "keyword"})
		fam.FileMeta[f] = family.FileMeta{Size: 1, ContentHash: id + f}
	}
	site, _ := m.svc.Site("x")
	st := &famState{fam: fam, plan: scheduler.BuildPlan(&fam), site: site,
		results: map[string]fastjson.Raw{}}
	m.p.setFamPhase(st, famRunning)
	for {
		step, ok := st.plan.Next()
		if !ok {
			return st
		}
		st.steps = append(st.steps, stepState{step: step})
	}
}

// put forces one step into a phase, as the events before the one under
// test would have left it, with the key it missed the cache under.
func (m *machine) put(st *famState, idx int, phase stepPhase, live, attempts int) {
	ss := &st.steps[idx]
	ss.phase, ss.live, ss.attempts = phase, live, attempts
	ss.key, _ = m.p.stepCacheKey(st, ss.step)
}

// accepted is the record of a task carrying refs as its shard leaves it
// once the fabric has taken the task.
func (m *machine) accepted(id string, hedge bool, refs ...stepRef) *task {
	return &task{id: id, hedge: hedge, refs: refs, submitted: m.clk.Now()}
}

// terminal builds the shard event for a finished task; outs nil means the
// task ended with status and no result.
func (m *machine) terminal(t *task, status faas.TaskStatus, outs []stepOutcome) shardEvent {
	info := faas.TaskInfo{ID: t.id, Status: status, Err: "task " + strings.ToLower(status.String())}
	if status == faas.TaskSuccess {
		body, err := encodeTaskResult(nil, &taskResult{Extractor: "keyword", Outcomes: outs})
		if err != nil {
			m.t.Fatal(err)
		}
		info.Result, info.Err = body, ""
	}
	return shardEvent{task: t, info: info}
}

// ok is the outcome a worker reports for a step that extracted fine.
func ok(st *famState, idx int) stepOutcome {
	return stepOutcome{FamilyID: st.fam.ID, GroupID: st.steps[idx].step.GroupID, OK: true,
		Metadata: fastjson.Raw(`{"n":1}`), ExtractMS: 2}
}

// effects is everything a transition may cause, as the sinks saw it.
type effects struct {
	completed, retried, deadLettered int // journal records
	billed, billedCached, billedFail int64
	cacheWrites                      int64
	results, extracted               int // the family's own record
	stats                            JobStats
}

func (m *machine) effects(st *famState) effects {
	m.mu.Lock()
	defer m.mu.Unlock()
	u, _ := m.tenants.UsageFor("default")
	e := effects{
		completed: m.journal[journal.RecStepCompleted], retried: m.journal[journal.RecStepRetried],
		deadLettered: m.journal[journal.RecStepDeadLettered],
		billed:       u.StepsProcessed, billedCached: u.CacheHits, billedFail: u.StepsFailed,
		cacheWrites: m.disk.writes.Load(), stats: m.p.JobStats,
	}
	if st != nil {
		e.results, e.extracted = len(st.results), len(st.extracted)
	}
	e.stats.JobID = ""
	return e
}

// committed is what one fresh completion causes, and nothing else may.
var committed = effects{completed: 1, billed: 1, cacheWrites: 1, results: 1, extracted: 1,
	stats: JobStats{StepsProcessed: 1}}

func TestStepTransitions(t *testing.T) {
	complete := func(m *machine, st *famState) {
		m.p.resolveTask(m.terminal(m.accepted("t1", false, stepRef{st, 0}), faas.TaskSuccess, []stepOutcome{ok(st, 0)}))
	}
	stepError := func(m *machine, st *famState) {
		bad := ok(st, 0)
		bad.OK, bad.Err, bad.Metadata = false, "extractor blew up", nil
		m.p.resolveTask(m.terminal(m.accepted("t1", false, stepRef{st, 0}), faas.TaskSuccess, []stepOutcome{bad}))
	}
	taskFailed := func(m *machine, st *famState) {
		m.p.resolveTask(m.terminal(m.accepted("t1", false, stepRef{st, 0}), faas.TaskFailed, nil))
	}
	taskLost := func(m *machine, st *famState) {
		m.p.resolveTask(m.terminal(m.accepted("t1", false, stepRef{st, 0}), faas.TaskLost, nil))
	}
	badResult := func(m *machine, st *famState) {
		ev := m.terminal(m.accepted("t1", false, stepRef{st, 0}), faas.TaskSuccess, nil)
		ev.info.Result = []byte(`{"extractor":`)
		m.p.resolveTask(ev)
	}
	neverSubmitted := func(m *machine, st *famState) {
		m.p.events.push(shardEvent{task: &task{refs: []stepRef{{st, 0}}}, cause: "no_function", detail: "not registered"})
		m.p.handleEvents()
	}
	backedOff := effects{retried: 1, stats: JobStats{StepsRetried: 1}}
	quarantined := effects{deadLettered: 1, billedFail: 1, extracted: 1,
		stats: JobStats{StepsFailed: 1, StepsDeadLettered: 1, FamiliesFailed: 1}}
	duplicate := effects{stats: JobStats{DuplicateSteps: 1}}
	// A commit out of a non-terminal phase is the first completion and
	// wins; a commit of a one-step family also finishes the family.
	done := committed
	done.stats.FamiliesDone = 1

	cases := []struct {
		name           string
		from           stepPhase
		live, attempts int
		budget         int // 0: the default 8
		event          func(*machine, *famState)
		to             stepPhase
		want           effects
	}{
		{name: "pending/complete", from: stepPending, event: complete, to: stepDone, want: done},
		{name: "ready/complete", from: stepReady, event: complete, to: stepDone, want: done},
		{name: "inflight/complete", from: stepInflight, live: 1, event: complete, to: stepDone, want: done},
		{name: "inflight/complete while the original still runs", from: stepInflight, live: 2, event: complete, to: stepDone, want: done},
		{name: "backoff/complete", from: stepBackoff, attempts: 1, event: complete, to: stepDone, want: done},
		{name: "done/complete is a duplicate", from: stepDone, event: complete, to: stepDone, want: duplicate},
		{name: "deadLettered/complete is a duplicate", from: stepDeadLettered, event: complete, to: stepDeadLettered, want: duplicate},

		{name: "inflight/step error, last execution", from: stepInflight, live: 1, event: stepError, to: stepBackoff, want: backedOff},
		{name: "inflight/task failed", from: stepInflight, live: 1, event: taskFailed, to: stepBackoff, want: backedOff},
		{name: "inflight/task lost", from: stepInflight, live: 1, event: taskLost, to: stepBackoff,
			want: effects{retried: 1, stats: JobStats{StepsRetried: 1, TasksResubmitted: 1}}},
		{name: "inflight/undecodable result", from: stepInflight, live: 1, event: badResult, to: stepBackoff, want: backedOff},
		{name: "inflight/never submitted", from: stepInflight, live: 1, event: neverSubmitted, to: stepBackoff, want: backedOff},
		{name: "inflight/failure while another execution is live", from: stepInflight, live: 2, event: taskFailed, to: stepInflight},
		{name: "inflight/failure on the last attempt", from: stepInflight, live: 1, attempts: 2, event: stepError, to: stepDeadLettered, want: quarantined},
		{name: "inflight/failure with the budget spent", from: stepInflight, live: 1, budget: -1, event: stepError, to: stepDeadLettered, want: quarantined},
		// The failure itself is moot; the advance that follows every event
		// then offers the pending step, as it was about to be anyway.
		{name: "pending/failure", from: stepPending, event: taskFailed, to: stepInflight,
			want: effects{stats: JobStats{CacheMisses: 1}}},
		{name: "ready/failure", from: stepReady, event: taskFailed, to: stepReady},
		{name: "backoff/failure", from: stepBackoff, attempts: 1, event: taskFailed, to: stepBackoff},
		{name: "done/failure", from: stepDone, event: taskFailed, to: stepDone},
		{name: "deadLettered/failure", from: stepDeadLettered, event: taskLost, to: stepDeadLettered},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t, nil)
			if tc.budget < 0 {
				m.p.budget = 0
			}
			st := m.family("fam", 1)
			m.put(st, 0, tc.from, tc.live, tc.attempts)
			if tc.from >= stepDone {
				// A step forced terminal left no trace in the family; a
				// second, open step keeps the family from finishing on it.
				st.steps = append(st.steps, stepState{step: scheduler.Step{GroupID: "other", Extractor: "keyword"}, phase: stepInflight, live: 1})
			}
			tc.event(m, st)
			if got := st.steps[0].phase; got != tc.to {
				t.Fatalf("phase = %d, want %d", got, tc.to)
			}
			if got := m.effects(st); got != tc.want {
				t.Fatalf("effects\n got %+v\nwant %+v", got, tc.want)
			}
			if tc.from == stepInflight && tc.to == stepBackoff && len(m.p.deadlines) != 1 {
				t.Fatalf("%d deadlines armed for a step in backoff", len(m.p.deadlines))
			}
		})
	}
}

// The cache's half of the table: a pending step is offered once; a hit
// commits without a cache write or an execution, a miss goes in flight
// under the key it missed with, and a step back from backoff is not
// looked up again.
func TestStepOfferedToTheCache(t *testing.T) {
	m := newMachine(t, nil)
	st := m.family("fam", 3)
	key, _ := m.p.stepCacheKey(st, st.steps[0].step)
	m.cache.PutRaw(key, fastjson.Raw(`{"from":"an earlier job"}`))
	m.disk.writes.Store(0)
	retried, _ := m.p.stepCacheKey(st, st.steps[2].step)
	m.cache.PutRaw(retried, fastjson.Raw(`{"late":"arrival"}`))
	m.disk.writes.Store(0)
	m.put(st, 2, stepPending, 0, 1)

	m.p.advance(st)

	if st.steps[0].phase != stepDone || st.steps[1].phase != stepInflight || st.steps[2].phase != stepInflight {
		t.Fatalf("phases = %d %d %d, want done, inflight, inflight", st.steps[0].phase, st.steps[1].phase, st.steps[2].phase)
	}
	if st.steps[1].live != 1 || st.steps[1].key == (cache.Key{}) {
		t.Fatalf("missed step = %+v, want one live execution and the key it missed under", st.steps[1])
	}
	want := effects{completed: 1, billed: 1, billedCached: 1, results: 1, extracted: 1,
		stats: JobStats{StepsProcessed: 1, CacheHits: 1, CacheMisses: 1}}
	if got := m.effects(st); got != want {
		t.Fatalf("effects\n got %+v\nwant %+v", got, want)
	}
	if !st.extracted[0].Cached {
		t.Fatal("the hit's provenance does not say cached")
	}
}

// The same terminal event delivered twice with hedging off: the second
// delivery is counted and changes nothing. (At the parent commit the
// fence existed only with hedging on, and this re-advanced the plan,
// journaled and billed twice.)
func TestSameCompletionTwiceHasNoSecondEffect(t *testing.T) {
	m := newMachine(t, nil)
	st := m.family("fam", 2)
	m.p.advance(st) // both miss the cache and go in flight for real
	ev := m.terminal(m.accepted("t1", false, stepRef{st, 0}), faas.TaskSuccess, []stepOutcome{ok(st, 0)})

	m.p.resolveTask(ev)
	if got := m.effects(st); got.completed != 1 || got.billed != 1 || got.cacheWrites != 1 || got.stats.DuplicateSteps != 0 {
		t.Fatalf("first delivery: %+v", got)
	}
	first := m.effects(st)
	m.p.resolveTask(ev)
	first.stats.DuplicateSteps = 1
	if got := m.effects(st); got != first {
		t.Fatalf("second delivery changed more than the duplicate count\n got %+v\nwant %+v", got, first)
	}
	if st.steps[0].phase != stepDone || st.steps[1].phase != stepInflight || st.phase != famRunning {
		t.Fatalf("phases after the duplicate: %d %d, family %d", st.steps[0].phase, st.steps[1].phase, st.phase)
	}
}

// A result that accounts for fewer steps than the task carried, or for
// other steps than it carried, settles every ref exactly once: matched
// refs commit, unmatched ones are a bad result for that step and retried,
// surplus outcomes are dropped. At the parent commit the unmatched step
// stayed issued for ever and the job never ended, hence the deadline.
func TestShortResultRetriesTheMissingStep(t *testing.T) {
	m := newMachine(t, nil)
	st := m.family("fam", 3)
	m.p.advance(st)
	refs := []stepRef{{st, 0}, {st, 1}, {st, 2}}
	stranger := stepOutcome{FamilyID: "another-family", GroupID: "g1", OK: true, Metadata: fastjson.Raw(`{}`)}

	// Outcome 0 matches, outcome 1 is about a step this task never had,
	// and there is no outcome 2.
	m.p.resolveTask(m.terminal(m.accepted("t1", false, refs...), faas.TaskSuccess, []stepOutcome{ok(st, 0), stranger}))
	if st.steps[0].phase != stepDone || st.steps[1].phase != stepBackoff || st.steps[2].phase != stepBackoff {
		t.Fatalf("phases = %d %d %d, want done, backoff, backoff", st.steps[0].phase, st.steps[1].phase, st.steps[2].phase)
	}
	if got := m.effects(st); got.completed != 1 || got.retried != 2 || got.results != 1 {
		t.Fatalf("effects after the short result: %+v", got)
	}

	m.clk.Advance(time.Second)
	if !m.p.intakeDeadlines() || st.steps[1].phase != stepInflight || st.steps[2].phase != stepInflight {
		t.Fatalf("retries not re-dispatched: %d %d", st.steps[1].phase, st.steps[2].phase)
	}
	// The retry's result carries one outcome too many: the surplus is for
	// a step the task was never given and must complete nothing.
	m.p.resolveTask(m.terminal(m.accepted("t2", false, refs[1:]...), faas.TaskSuccess, []stepOutcome{ok(st, 1), ok(st, 2), ok(st, 0)}))
	if st.phase != famFinished || m.p.FamiliesDone != 1 || m.p.StepsProcessed != 3 || m.p.DuplicateSteps != 1 {
		t.Fatalf("family phase %d, stats %+v", st.phase, m.p.JobStats)
	}
	m.p.flushResults() // as the pass that handled the event would have
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.p.loop(ctx); err != nil {
		t.Fatalf("the job did not converge: %v", err)
	}
}

// Steps and staging reach their ends through the one retry policy:
// MaxAttempts executions at most, each retry paid from the job's budget,
// and an exhausted budget named in the reason.
func TestRetryPolicyBoundsStepsAndStagingAlike(t *testing.T) {
	t.Run("attempts", func(t *testing.T) {
		m := newMachine(t, nil)
		st := m.family("fam", 1)
		staging := &famState{fam: family.Family{ID: "staged"}, site: st.site, stageAttempts: 1, prefetchBody: []byte("task")}
		m.p.setFamPhase(staging, famStaging)
		for try := 1; try <= 3; try++ {
			m.put(st, 0, stepInflight, 0, try-1) // its one execution has just ended
			m.p.failStep(st, 0, "failed", "again")
			m.p.failStaging(staging, "staging failed: link down")
			if try < 3 {
				if st.steps[0].phase != stepBackoff || staging.phase != famStaging {
					t.Fatalf("try %d: step %d, family %d", try, st.steps[0].phase, staging.phase)
				}
				m.clk.Advance(time.Second)
				m.p.intakeDeadlines()
			}
		}
		if st.steps[0].phase != stepDeadLettered || staging.phase != famFinished {
			t.Fatalf("after 3 tries: step %d, family %d", st.steps[0].phase, staging.phase)
		}
		if m.p.StepsRetried != 4 || m.p.budget != 8-4 || m.p.StepsDeadLettered != 1 || m.p.FamiliesFailed != 1 {
			t.Fatalf("budget %d, stats %+v", m.p.budget, m.p.JobStats)
		}
		if n := m.svc.cfg.PrefetchQueue.Len(); n != 2 {
			t.Fatalf("%d prefetch tasks re-sent, want 2", n)
		}
	})
	t.Run("budget", func(t *testing.T) {
		m := newMachine(t, func(cfg *Config) { cfg.Retry.JobBudget = 1 })
		st := m.family("fam", 1)
		staging := &famState{fam: family.Family{ID: "staged"}, site: st.site, stageAttempts: 1, prefetchBody: []byte("task")}
		m.p.setFamPhase(staging, famStaging)
		m.put(st, 0, stepInflight, 0, 0)
		m.p.failStaging(staging, "staging failed: link down") // spends the budget
		m.p.failStep(st, 0, "failed", "once")
		if staging.phase != famStaging || st.steps[0].phase != stepDeadLettered {
			t.Fatalf("family %d, step %d; want staging retried, step quarantined", staging.phase, st.steps[0].phase)
		}
		rec, _ := m.svc.cfg.Registry.Job(m.p.JobID)
		if len(rec.DeadLetters) != 1 || !strings.HasPrefix(rec.DeadLetters[0].Reason, "retry budget exhausted: ") {
			t.Fatalf("dead letters = %+v", rec.DeadLetters)
		}
	})
}

// A hedge deadline and a retry backoff armed together share one list and
// one timer: await wakes for whichever is earlier, under its own reason,
// and the intake fires only what is due.
func TestHedgeDeadlineAndBackoffFireInTimeOrder(t *testing.T) {
	// Hedging stays off in the configuration so that no shard reports an
	// accepted task behind the test's back: the test reports them itself,
	// and an extractor nobody has timed gets the heartbeat timeout as its
	// deadline either way.
	m := newMachine(t, func(cfg *Config) { cfg.FaaS.HeartbeatTimeout = 40 * time.Millisecond })
	st := m.family("fam", 2)
	m.put(st, 0, stepInflight, 1, 0)
	m.put(st, 1, stepInflight, 0, 0) // its one execution has just ended
	t0 := m.accepted("t0", false, stepRef{st, 0})
	m.p.noteAccepted(t0)                   // hedge deadline at +40ms
	m.p.failStep(st, 1, "failed", "flaky") // backoff at +10ms
	if len(m.p.deadlines) != 2 {
		t.Fatalf("%d deadlines armed, want 2", len(m.p.deadlines))
	}

	woke := func(advance time.Duration) string {
		t.Helper()
		got := make(chan string, 1)
		go func() {
			reason, _ := m.p.await(context.Background())
			got <- reason
		}()
		for m.clk.PendingTimers() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		m.clk.Advance(advance)
		select {
		case reason := <-got:
			return reason
		case <-time.After(10 * time.Second):
			t.Fatal("await did not wake")
			return ""
		}
	}
	if reason := woke(10 * time.Millisecond); reason != "retry" {
		t.Fatalf("first wakeup = %q, want retry", reason)
	}
	m.p.intakeDeadlines()
	if st.steps[1].phase != stepInflight || st.steps[1].attempts != 1 || st.steps[0].hedged {
		t.Fatalf("after the backoff: retried step %+v, other hedged=%v", st.steps[1], st.steps[0].hedged)
	}
	if reason := woke(30 * time.Millisecond); reason != "hedge" {
		t.Fatalf("second wakeup = %q, want hedge", reason)
	}
	m.p.intakeDeadlines()
	if !st.steps[0].hedged || st.steps[0].live != 2 || m.p.StepsHedged != 1 || len(m.p.deadlines) != 0 {
		t.Fatalf("after the hedge deadline: %+v, hedged %d, %d deadlines left", st.steps[0], m.p.StepsHedged, len(m.p.deadlines))
	}
	// The duplicate wins; the original's later result is a duplicate, and
	// a step is never hedged twice.
	dup := m.accepted("t0-hedge", true, stepRef{st, 0})
	m.p.noteAccepted(dup)
	m.p.resolveTask(m.terminal(dup, faas.TaskSuccess, []stepOutcome{ok(st, 0)}))
	m.p.resolveTask(m.terminal(t0, faas.TaskSuccess, []stepOutcome{ok(st, 0)}))
	if got := m.effects(st); got.completed != 1 || got.billed != 1 || got.stats.HedgeWins != 1 || got.stats.DuplicateSteps != 1 {
		t.Fatalf("hedged step's effects: %+v", got)
	}
	if m.p.fireHedge(t0) {
		t.Fatal("a finished task was hedged")
	}
}
