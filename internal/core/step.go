package core

import (
	"cmp"
	"log/slog"
	"slices"
	"strings"
	"time"

	"xtract/internal/cache"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/journal"
	"xtract/internal/obs"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/transfer"
	"xtract/internal/validate"
)

// This file is the step state machine (DESIGN §11 has the diagram and the
// transition table). A step is one (family, group, extractor)
// application; its whole state is one stepState record. Whatever the end
// of an execution can cause goes through commitStep or failStep, so
// exactly-once effects over an at-least-once substrate (hedged
// duplicates, a result delivered twice) is one test on one field:
// commitStep claims the step before it does anything else.

// stepPhase is where one step stands.
type stepPhase uint8

const (
	stepPending      stepPhase = iota // named by the plan, or back from backoff; not yet looked at
	stepCached                        // the result cache answered; the commit follows at once
	stepReady                         // needs an execution: waiting for a task slot and room in its shard's feed
	stepInflight                      // handed to a shard; stepState.live counts the executions not yet ended
	stepBackoff                       // its last execution failed; a deadline returns it to pending
	stepDone                          // terminal: committed, every effect run once
	stepDeadLettered                  // terminal: quarantined, its attempts or the job's retry budget spent
)

// stepState is the one record of a step, owned by its family.
type stepState struct {
	step   scheduler.Step
	phase  stepPhase
	hedged bool // it has had its one speculative duplicate
	// attempts counts executions that failed; live those in flight (1
	// normally, 2 while hedged). A failure is swallowed while another
	// execution is live, so only the last one's reaches the retry policy.
	attempts int
	live     int
	// key is the step's cache key (zero: not cacheable), derived at its
	// first offer: every offer probes the cache under it, and its payload
	// carries it to the worker, which files the result there.
	key cache.Key
	// tasks lists the accepted tasks carrying the step, whose losers are
	// cancelled when one commits it (shards report them only when hedging).
	tasks []*task
	// md is the step's metadata once it is done, as the worker encoded
	// it; the bytes are shared with the cache and the journal.
	md fastjson.Raw
}

// stepRef names one step record: a dispatched step carries it through its
// shard, which never looks inside, and every event about it brings it back.
type stepRef struct {
	st  *famState
	idx int
}

// famPhase is where one family stands; see pump.fams.
type famPhase uint8

const (
	famStaging  famPhase = iota + 1 // its files are being copied to the execution site
	famRunning                      // its steps are being worked through
	famFinished                     // document sent, or the family failed
)

// finishedFam is the tombstone every finished family's entry points at.
var finishedFam = &famState{phase: famFinished}

// famState is the service-side record of one family.
type famState struct {
	phase famPhase
	fam   family.Family
	plan  scheduler.Plan // its first step inline: a famState is never copied
	// steps holds one record per step the plan has handed out, in that
	// order; a stepRef indexes it. oneStep backs it until a second step.
	steps   []stepState
	oneStep [1]stepState
	site    *Site
	// stage is the prefix the site's workers read the family's files under:
	// the site's staging directory once the family is staged there, empty
	// when its files are read in place or fetched one by one.
	stage     string
	fetchFrom string // direct-fetch source endpoint ("" = local/staged)

	// prefetch is the staging task, kept for re-sends; only a staged
	// family has one.
	prefetch transfer.PrefetchTask
	// stageAttempts counts staging tries for this family.
	stageAttempts int
	// deadLettered counts this family's quarantined steps; any > 0 makes
	// the family fail once every step has resolved.
	deadLettered int
}

// outcome is what a completion brings to commitStep: the metadata and
// whether the cache supplied it; for a fresh result also the extractor's
// run time, the step's share of its task's submit→terminal span (zero
// unless hedging) and the task.
type outcome struct {
	md       fastjson.Raw
	cached   bool
	dur, e2e time.Duration
	task     *task
}

// advance takes every step the family's plan has named since the last
// call into the step table, offers every pending step to the cache or a
// site, and finishes the family once no step is left open. A cache hit
// commits in place and may name follow-on steps, which the same walk
// then reaches.
func (p *pump) advance(st *famState) {
	if st.phase != famRunning {
		return
	}
	open := 0
	for i := 0; ; i++ {
		if i == len(st.steps) {
			step, ok := st.plan.Next()
			if !ok {
				break
			}
			st.steps = append(st.steps, stepState{step: step})
		}
		if st.steps[i].phase == stepPending {
			p.offer(st, i)
		}
		if st.steps[i].phase < stepDone {
			open++
		}
	}
	if open == 0 {
		p.finishFamily(st)
	}
}

// advanceAll advances the family of every ref after an event about their
// steps. A task's steps mostly arrive grouped by family, so skipping
// repeats of the previous one is all the deduplication a rescan is worth.
func (p *pump) advanceAll(refs []stepRef) {
	for i, r := range refs {
		if i == 0 || refs[i-1].st != r.st {
			p.advance(r.st)
		}
	}
}

// offer looks at one pending step: one the result cache can answer —
// from an earlier job, or from an execution that finished before its task
// was lost — commits from it, with no shard and no FaaS task, and anything
// else is dispatched to the family's site.
func (p *pump) offer(st *famState, idx int) {
	ss := &st.steps[idx]
	if ss.attempts == 0 {
		ss.key, _ = p.stepCacheKey(st, ss.step)
	}
	if ss.key != (cache.Key{}) {
		if md, hit := p.s.cfg.Cache.Get(ss.key); hit {
			ss.phase = stepCached
			p.commitStep(st, idx, outcome{md: md, cached: true})
			return
		}
		p.CacheMisses++
	}
	ss.phase = stepReady
	p.dispatch(st, idx)
}

// commitStep is the only way a completion takes effect. It claims the
// step first — a step already done (or dead-lettered) has had its
// effects, so a second completion is counted and changes nothing,
// whether it came from a hedged duplicate or anywhere else — and then
// runs each effect once: plan growth, the family's results, the
// step_completed journal record, the job's counts (which the pass's post
// bills to the tenant), the latency estimator, and the hedge win with its
// losers' cancellation. The cache write is not among them: the worker
// that extracted the step made it, under the content-addressed key, so a
// second write by a duplicate is the same entry again.
func (p *pump) commitStep(st *famState, idx int, o outcome) {
	ss := &st.steps[idx]
	if ss.phase >= stepDone {
		p.DuplicateSteps++
		return
	}
	ss.phase, ss.md = stepDone, o.md
	step := ss.step
	st.plan.Complete(step, extractors.Suggestions(o.md))
	if p.s.cfg.Journal != nil {
		// The record carries the step's content-addressed cache key and
		// its metadata, which is what lets recovery seed the result cache
		// so no extractor re-runs for work completed before a crash.
		rec := journal.Record{
			Type: journal.RecStepCompleted, FamilyID: st.fam.ID,
			GroupID: step.GroupID, Extractor: step.Extractor, Cached: o.cached,
			Metadata: orNull(o.md),
		}
		if ss.key != (cache.Key{}) {
			rec.CacheKey = &journal.CacheKey{ContentHash: ss.key.ContentHash, Version: ss.key.Version}
		}
		p.journal(rec)
	}
	p.StepsProcessed++
	if o.cached {
		p.CacheHits++
		p.s.obs.Event(p.JobID, obs.EvStepCacheHit, slog.String("family", st.fam.ID),
			slog.String("group", step.GroupID), slog.String("extractor", step.Extractor))
		return
	}
	p.ExtractorTime += o.dur
	// With hedging the estimator learns the span the hedge deadline is
	// armed over; without, raw execution time (it has no consumer then).
	if o.e2e > 0 {
		p.s.estimator.Observe(step.Extractor, o.e2e)
	} else {
		p.s.estimator.Observe(step.Extractor, o.dur)
	}
	p.s.obsStepDuration.With(step.Extractor).ObserveDuration(o.dur)
	if o.task.hedge {
		p.HedgeWins++
	}
	p.cancelLosers(ss, o.task)
}

// failStep is the only failure transition. One execution of the step has
// ended without a result: unless the step is settled or another
// execution is still live and will drive it to its own outcome, the
// retry policy decides between backoff and the dead-letter queue. It
// reports whether the step will run again. cause is a low-cardinality
// label ("lost", "failed", ...); detail may carry the underlying error
// text for the trace and the dead-letter record.
func (p *pump) failStep(st *famState, idx int, cause, detail string) bool {
	ss := &st.steps[idx]
	if ss.phase != stepInflight || ss.live > 0 {
		return false
	}
	reason := cause
	if detail != "" {
		reason = cause + ": " + detail
	}
	step := ss.step
	ss.attempts++
	d, reason, again := p.retry(stepRef{st, idx},
		st.fam.ID+"/"+step.GroupID+"/"+step.Extractor, ss.attempts, cause, reason)
	if !again {
		p.deadLetterStep(st, idx, reason)
		return false
	}
	ss.phase = stepBackoff
	p.s.obs.Event(p.JobID, obs.EvTaskRetried, slog.String("family", st.fam.ID),
		slog.String("group", step.GroupID), slog.String("extractor", step.Extractor),
		slog.Int("attempt", ss.attempts), slog.Duration("backoff", d), slog.String("cause", reason))
	p.journal(journal.Record{
		Type: journal.RecStepRetried, FamilyID: st.fam.ID,
		GroupID: step.GroupID, Extractor: step.Extractor,
		Attempt: ss.attempts, Reason: reason,
	})
	return true
}

// failSteps fails every step of a task or batch that ended as a whole,
// returning how many will run again.
func (p *pump) failSteps(refs []stepRef, cause, detail string) int {
	again := 0
	for _, r := range refs {
		if p.failStep(r.st, r.idx, cause, detail) {
			again++
		}
	}
	return again
}

// retry is the one retry policy, for steps and for staging alike. Attempt
// n of what wake names (idx < 0: the family's staging) has failed: while
// it has attempts left and the job has retry budget, one unit of budget is
// spent and a deadline armed after the backoff; otherwise the answer is to
// give up, saying so when it is the budget that ran out. unit keys the
// deterministic jitter.
func (p *pump) retry(wake stepRef, unit string, n int, cause, reason string) (time.Duration, string, bool) {
	if n < p.s.cfg.Retry.MaxAttempts && p.budget > 0 {
		p.budget--
		p.StepsRetried++
		d := p.s.cfg.Retry.backoff(unit, n)
		p.deadlines = append(p.deadlines, deadline{at: p.s.clk.Now().Add(d), stepRef: wake})
		p.s.obsRetries.With(cause).Inc()
		p.s.obsRetryBackoff.ObserveDuration(d)
		return d, reason, true
	}
	if n < p.s.cfg.Retry.MaxAttempts {
		p.s.obsBudgetExhausted.Inc()
		reason = "retry budget exhausted: " + reason
	}
	return 0, reason, false
}

// deadLetterStep quarantines a poison step: the job record gets a
// dead-letter entry, and the family is doomed to fail (or, inside the
// straggler budget, to finish degraded) once its other steps resolve.
func (p *pump) deadLetterStep(st *famState, idx int, cause string) {
	ss := &st.steps[idx]
	ss.phase = stepDeadLettered
	step := ss.step
	st.deadLettered++
	p.StepsDeadLettered++
	p.StepsFailed++
	dl := registry.DeadLetter{
		Kind:      "step",
		FamilyID:  st.fam.ID,
		GroupID:   step.GroupID,
		Extractor: step.Extractor,
		Attempts:  ss.attempts,
		Reason:    cause,
		At:        p.s.clk.Now(),
	}
	p.addDeadLetter(dl)
	p.s.obs.Warn(p.JobID, obs.EvTaskDeadLettered, slog.String("family", st.fam.ID),
		slog.String("group", step.GroupID), slog.String("extractor", step.Extractor),
		slog.Int("attempts", ss.attempts), slog.String("cause", cause))
	// The record is the dead letter itself, At included: recovery hands
	// it back to a job that ends before it runs again.
	p.journal(journal.Record{
		Type: journal.RecStepDeadLettered, FamilyID: st.fam.ID, At: dl.At,
		GroupID: step.GroupID, Extractor: step.Extractor,
		Attempt: ss.attempts, Reason: cause,
	})
}

// resolveTask settles every step of one task that has ended, on the
// fabric or before reaching it. Each ref is resolved exactly once, by
// what the pump sent, not by what the worker claims to have run.
func (p *pump) resolveTask(ev shardEvent) {
	t, info := ev.task, ev.info
	// The task is over: retire it and its executions before the per-step
	// resolution below consults them.
	t.ended = true
	for _, r := range t.refs {
		if ss := &r.st.steps[r.idx]; ss.live > 0 {
			ss.live--
		}
	}

	switch {
	case ev.cause != "": // the shard could not submit it: info is meaningless
		p.failSteps(t.refs, ev.cause, ev.detail)
	case info.Status == faas.TaskSuccess:
		p.resolveResult(t, info.Result)
	case info.Status == faas.TaskFailed:
		// Includes a hedge loser's cancellation, which every step's
		// settled phase swallows.
		p.s.obs.Event(p.JobID, obs.EvTaskFailed, slog.String("task", t.id), slog.Int("steps", len(t.refs)),
			slog.String("cause", info.Err))
		p.failSteps(t.refs, "failed", info.Err)
	case info.Status == faas.TaskLost:
		// Allocation ended (Figure 8 restart): resubmit with bounded
		// retry so a permanently dead endpoint cannot loop forever.
		p.s.obs.Event(p.JobID, obs.EvTaskLost, slog.String("task", t.id), slog.Int("steps", len(t.refs)))
		if requeued := p.failSteps(t.refs, "lost", info.Err); requeued > 0 {
			p.TasksResubmitted++
			p.s.obs.Event(p.JobID, obs.EvTaskResubmitted, slog.String("task", t.id), slog.Int("steps", requeued))
		}
	}
	p.advanceAll(t.refs) // suggestions and ended backoffs become new steps
}

// resolveResult matches a successful task's result to the steps it
// carried. Ref i takes outcome i only if that outcome is about ref i's
// family and group; a ref the result does not account for is a bad
// result for that step (retried like any failure — left alone it would
// stay in flight for ever), and outcomes beyond the refs are for steps
// this task was never given: dropped, and counted as duplicates. A result
// that is not a *taskResult fails every ref as a bad result.
func (p *pump) resolveResult(t *task, res any) {
	result, ok := res.(*taskResult)
	if !ok || result == nil {
		p.failSteps(t.refs, "bad_result", "the task returned no task result")
		p.s.obs.Event(p.JobID, obs.EvTaskFailed, slog.String("task", t.id), slog.String("cause", "bad_result"))
		return
	}
	p.s.obs.Event(p.JobID, obs.EvTaskCompleted, slog.String("task", t.id),
		slog.String("extractor", result.Extractor), slog.Int("outcomes", len(result.Outcomes)))
	// The estimator is fed submit→terminal latency, the span the hedge
	// deadline is armed over, so endpoint queueing is priced into the
	// deadline, not counted against it. Without hedging nobody asks it.
	var e2e time.Duration
	if p.s.cfg.Hedge.Enabled {
		e2e = p.s.clk.Now().Sub(t.submitted) / time.Duration(len(t.refs))
	}
	for i, r := range t.refs {
		var outc *stepOutcome
		if i < len(result.Outcomes) {
			outc = &result.Outcomes[i]
		}
		switch {
		case outc == nil || outc.FamilyID != r.st.fam.ID || outc.GroupID != r.st.steps[r.idx].step.GroupID:
			p.failStep(r.st, r.idx, "bad_result", "the task's result has no outcome for this step")
		case !outc.OK:
			// The extractor ran and reported failure; retry in case the
			// fault was transient, then quarantine.
			p.failStep(r.st, r.idx, "step_error", outc.Err)
		default:
			p.commitStep(r.st, r.idx, outcome{
				md:  outc.Metadata,
				dur: time.Duration(outc.ExtractMS * float64(time.Millisecond)),
				e2e: e2e, task: t,
			})
		}
	}
	if surplus := len(result.Outcomes) - len(t.refs); surplus > 0 {
		p.DuplicateSteps += int64(surplus)
	}
}

// finishFamily closes a family whose every step has resolved: its entry
// becomes the tombstone, its staged copies go, and its validation record
// joins this pass's results. A family with quarantined steps fails
// instead — its metadata is incomplete and the job's dead-letter report
// is the audit trail — unless the straggler budget covers them.
func (p *pump) finishFamily(st *famState) {
	p.setFamPhase(st, famFinished)
	p.unstage(st)
	if st.deadLettered > 0 {
		if !p.withinStragglerBudget() {
			p.FamiliesFailed++
			p.s.obs.Warn(p.JobID, obs.EvFamilyFailed, slog.String("family", st.fam.ID),
				slog.Int("dead_lettered", st.deadLettered))
			return
		}
		// Inside the straggler budget: the family finishes degraded — its
		// validation record ships below with the metadata of the steps
		// that did finish, instead of discarding the whole family.
		p.FamiliesDegraded++
	}
	// The file list and the metadata are encoded once, here, in path and
	// key order, and from there on only spliced into the document. The
	// record gets bytes of its own, which nobody writes after the hand-off:
	// recordBuf is written again by the next family.
	p.recordBuf = append(p.recordBuf[:0], '[')
	for i := range st.fam.FileMeta {
		if i > 0 {
			p.recordBuf = append(p.recordBuf, ',')
		}
		p.recordBuf = fastjson.AppendString(p.recordBuf, st.fam.FileMeta[i].Path)
	}
	p.recordBuf = append(p.recordBuf, ']')
	n := len(p.recordBuf)
	p.recordBuf = st.appendResults(p.recordBuf)
	body := slices.Clip(slices.Clone(p.recordBuf))
	p.results = append(p.results, validate.Record{
		JobID:    p.JobID,
		FamilyID: st.fam.ID,
		Store:    st.fam.Store,
		BasePath: st.fam.BasePath,
		Files:    body[:n:n],
		Metadata: body[n:],
	})
	p.FamiliesDone++
	p.s.obs.Event(p.JobID, obs.EvFamilyDone, slog.String("family", st.fam.ID), slog.Int("steps", len(st.steps)),
		slog.Int("dead_lettered", st.deadLettered))
}

// appendResults appends the family's metadata as fastjson.AppendRawMap
// would a map of it: each done step's metadata under its group/extractor
// key, keys in order, null for a step that produced none. A key is
// compared and written from its two parts and never built.
func (st *famState) appendResults(dst []byte) []byte {
	var first [8]int // the done steps' indices: a family's usually fit here
	done := first[:0]
	for i := range st.steps {
		if st.steps[i].phase == stepDone {
			done = append(done, i)
		}
	}
	slices.SortFunc(done, func(a, b int) int {
		sa, sb := &st.steps[a].step, &st.steps[b].step
		return compareKeys(sa.GroupID, sa.Extractor, sb.GroupID, sb.Extractor)
	})
	dst = append(dst, '{')
	for n, i := range done {
		if n > 0 {
			dst = append(dst, ',')
		}
		step := &st.steps[i].step
		// The key's two quoted strings, spliced at the slash: JSON escapes
		// byte by byte and '/' never ends a UTF-8 sequence, so this is
		// the joined key's encoding.
		dst = fastjson.AppendString(dst, step.GroupID)
		dst[len(dst)-1] = '/' // its closing quote
		at := len(dst)
		dst = fastjson.AppendString(dst, step.Extractor)
		dst = append(dst[:at], dst[at+1:]...) // its opening quote
		dst = append(append(dst, ':'), orNull(st.steps[i].md)...)
	}
	return append(dst, '}')
}

// compareKeys orders the keys g1+"/"+e1 and g2+"/"+e2 as strings.Compare
// orders them joined, without joining them. It is not the order of the
// (group, extractor) pairs: "a-b/x" sorts before "a/x".
func compareKeys(g1, e1, g2, e2 string) int {
	k1, k2 := [3]string{g1, "/", e1}, [3]string{g2, "/", e2}
	i, j := 0, 0
	a, b := k1[0], k2[0]
	for {
		for a == "" && i < 2 {
			i++
			a = k1[i]
		}
		for b == "" && j < 2 {
			j++
			b = k2[j]
		}
		if a == "" || b == "" {
			return cmp.Compare(len(a), len(b))
		}
		n := min(len(a), len(b))
		if c := strings.Compare(a[:n], b[:n]); c != 0 {
			return c
		}
		a, b = a[n:], b[n:]
	}
}

// What follows is hedged speculative execution: a policy that proposes a
// second execution for steps whose task has outlived its adaptive
// deadline (estimator.go). Which execution counts is commitStep's
// business, hedged or not; all of this is driven by the shards'
// task-accepted events, which they send only when hedging is on.

// noteAccepted takes in a task the fabric has accepted: its steps list
// it, for loser cancellation, and — for first-attempt tasks — the adaptive
// hedge deadline is armed, scaled by the number of steps the task carries.
func (p *pump) noteAccepted(t *task) {
	if settled(t) {
		// Every step it carries was committed before the fabric's accept
		// reached the pump, so cancelLosers could not see it: a loser all
		// the same, and left running it would extract for nobody.
		if p.s.cfg.FaaS.CancelTask(t.id) {
			p.s.obsHedgeCancelled.Inc()
		}
		return
	}
	for _, r := range t.refs {
		ss := &r.st.steps[r.idx]
		ss.tasks = append(ss.tasks, t)
	}
	if t.hedge {
		return // hedges are never themselves hedged
	}
	first := t.refs[0]
	d := p.s.estimator.Deadline(first.st.steps[first.idx].step.Extractor, p.s.cfg.FaaS.HeartbeatTimeout)
	if d <= 0 {
		return
	}
	d *= time.Duration(len(t.refs))
	p.deadlines = append(p.deadlines, deadline{at: t.submitted.Add(d), task: t})
}

// fireHedge acts on a hedge deadline that has come due: if the task is
// still running, each of its steps still in flight and not hedged before
// (a step is never hedged twice) gets a speculative duplicate. It
// reports whether the task was still running.
func (p *pump) fireHedge(t *task) bool {
	if t.ended {
		return false // the task finished before its deadline
	}
	for _, r := range t.refs {
		if ss := &r.st.steps[r.idx]; ss.phase == stepInflight && !ss.hedged {
			ss.hedged = true
			p.dispatchHedge(r.st, r.idx)
		}
	}
	return true
}

// hedgeTarget picks the site for a speculative duplicate: a different
// compute site that can run the extractor and whose circuit breaker
// admits new work, the first in name order, else
// the origin site itself — a straggler is usually a property of the
// worker, not the step, so even a same-site duplicate tends to win.
func (p *pump) hedgeTarget(st *famState, extractor string) *Site {
	for _, site := range p.s.siteList() {
		if site.Name == st.site.Name || !site.HasCompute() {
			continue
		}
		if _, err := p.s.functionFor(extractor, site.Name); err != nil {
			continue
		}
		if p.s.breakerFor(site.Name).Allow() {
			return site
		}
	}
	if p.s.breakerFor(st.site.Name).Allow() {
		return st.site
	}
	return nil
}

// dispatchHedge routes one speculative duplicate. On the origin site it
// reads what the original reads; on an alternate site the worker fetches
// the original files from the family's home data layer over the transfer
// fabric (the same mechanism as direct-fetch placement), so a hedge needs
// no staging.
func (p *pump) dispatchHedge(st *famState, idx int) {
	step := st.steps[idx].step
	target := p.hedgeTarget(st, step.Extractor)
	if target == nil {
		return
	}
	sp := st.payload(idx)
	if target.Name != st.site.Name {
		sp.Stage, sp.Staged, sp.FetchFrom = "", nil, ""
		if target.Name != st.fam.Store {
			home, ok := p.s.Site(st.fam.Store)
			if !ok {
				return
			}
			sp.FetchFrom = home.Name
		}
	}
	if p.feed(target, dispatchItem{extractor: step.Extractor, hedge: true, ref: stepRef{st, idx}, sp: sp}) {
		p.StepsHedged++
		p.s.obs.Event(p.JobID, obs.EvTaskHedged, slog.String("family", st.fam.ID),
			slog.String("group", step.GroupID), slog.String("extractor", step.Extractor),
			slog.String("site", target.Name))
	}
}

// cancelLosers cancels the other in-flight tasks carrying a step that
// has just been committed, freeing their workers early. A task is
// cancelled only when every step it carries is settled — cancelling a
// multi-step batch over one duplicate would kill innocent sibling steps.
func (p *pump) cancelLosers(ss *stepState, winner *task) {
	for _, t := range ss.tasks {
		if t == winner || t.ended {
			continue
		}
		if settled(t) && p.s.cfg.FaaS.CancelTask(t.id) {
			p.s.obsHedgeCancelled.Inc()
		}
	}
	ss.tasks = nil
}

// settled reports whether every step t carries is done or dead-lettered.
func settled(t *task) bool {
	for _, r := range t.refs {
		if r.st.steps[r.idx].phase < stepDone {
			return false
		}
	}
	return true
}
