package core

import (
	"sort"
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
	// key is the cache key the step missed under (zero: not cacheable),
	// kept so its commit writes back without deriving the key again.
	key cache.Key
	// tasks lists the accepted tasks carrying the step, whose losers are
	// cancelled when one commits it (shards report them only when hedging).
	tasks []*task
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
	plan  *scheduler.Plan
	// steps holds one record per step the plan has handed out, in that
	// order; a stepRef indexes it.
	steps []stepState
	site  *Site
	// stage is the prefix the site's workers read the family's files under:
	// the site's staging directory once the family is staged there, empty
	// when its files are read in place or fetched one by one.
	stage string
	// results holds each finished step's metadata as the worker encoded
	// it; the bytes are shared with the cache and the journal.
	results map[string]fastjson.Raw
	// extracted is the per-step provenance the validation record carries.
	extracted []validate.StepResult
	fetchFrom string // direct-fetch source endpoint ("" = local/staged)

	// prefetchBody is the serialized staging task, kept for re-sends; only
	// a staged family has one.
	prefetchBody []byte
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

// offer looks at one pending step: a first attempt the result cache can
// answer commits from it — no shard, no FaaS task — and anything else is
// dispatched to the family's site.
func (p *pump) offer(st *famState, idx int) {
	ss := &st.steps[idx]
	if ss.attempts == 0 {
		if key, ok := p.stepCacheKey(st, ss.step); ok {
			ss.key = key
			if md, hit := p.s.cfg.Cache.Get(key); hit {
				ss.phase = stepCached
				p.commitStep(st, idx, outcome{md: md, cached: true})
				return
			}
			p.CacheMisses++
			p.s.obsCacheMisses.Inc()
		}
	}
	ss.phase = stepReady
	p.dispatch(st, idx)
}

// commitStep is the only way a completion takes effect. It claims the
// step first — a step already done (or dead-lettered) has had its
// effects, so a second completion is counted and changes nothing,
// whether it came from a hedged duplicate or anywhere else — and then
// runs each effect once: validation provenance, plan growth, the
// family's results, cache write-back (fresh results only), the
// step_completed journal record, tenant billing, counters, the latency
// estimator, and the hedge win with its losers' cancellation.
func (p *pump) commitStep(st *famState, idx int, o outcome) {
	ss := &st.steps[idx]
	if ss.phase >= stepDone {
		p.DuplicateSteps++
		p.s.obsHedgeFenced.Inc()
		return
	}
	ss.phase = stepDone
	step := ss.step
	st.extracted = append(st.extracted, validate.StepResult{
		GroupID: step.GroupID, Extractor: step.Extractor,
		OK: true, Cached: o.cached, Duration: o.dur,
	})
	st.plan.Complete(step, extractors.Suggestions(o.md))
	st.results[step.GroupID+"/"+step.Extractor] = o.md
	cacheable := ss.key != cache.Key{}
	if cacheable && !o.cached {
		// Remember the fresh result so a later run over identical
		// content replays it instead of re-extracting.
		p.s.cfg.Cache.PutRaw(ss.key, o.md)
	}
	if p.s.cfg.Journal != nil {
		// The record carries the step's content-addressed cache key and
		// its metadata, which is what lets recovery seed the result cache
		// so no extractor re-runs for work completed before a crash.
		rec := journal.Record{
			Type: journal.RecStepCompleted, FamilyID: st.fam.ID,
			GroupID: step.GroupID, Extractor: step.Extractor, Cached: o.cached,
			Metadata: orNull(o.md),
		}
		if cacheable {
			rec.CacheKey = &journal.CacheKey{ContentHash: ss.key.ContentHash, Version: ss.key.Version}
		}
		p.journal(rec)
	}
	p.StepsProcessed++
	p.s.cfg.Tenants.StepDone(p.tenant, o.dur, o.cached)
	p.s.obsGroupsProcessed.Inc()
	if o.cached {
		p.CacheHits++
		p.s.obsCacheHits.Inc()
		p.s.obs.Emitf(p.JobID, obs.EvStepCacheHit,
			"family=%s group=%s extractor=%s replayed from cache",
			st.fam.ID, step.GroupID, step.Extractor)
		return
	}
	// With hedging the estimator learns the span the hedge deadline is
	// armed over; without, raw execution time (it has no consumer then).
	if o.e2e > 0 {
		p.s.estimator.Observe(step.Extractor, o.e2e)
	} else {
		p.s.estimator.Observe(step.Extractor, o.dur)
	}
	p.s.stepDurationHist(step.Extractor).ObserveDuration(o.dur)
	if o.task.hedge {
		p.HedgeWins++
		p.s.obsHedgeWins.Inc()
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
	p.s.obs.Emitf(p.JobID, obs.EvTaskRetried,
		"family=%s group=%s extractor=%s attempt=%d backoff=%s cause=%s",
		st.fam.ID, step.GroupID, step.Extractor, ss.attempts, d, reason)
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
	if n < p.s.retry.MaxAttempts && p.budget > 0 {
		p.budget--
		p.StepsRetried++
		d := p.s.retry.backoff(unit, n)
		p.deadlines = append(p.deadlines, deadline{at: p.s.clk.Now().Add(d), stepRef: wake})
		p.s.obsRetries.with(cause).Inc()
		p.s.obsRetryBackoff.ObserveDuration(d)
		return d, reason, true
	}
	if n < p.s.retry.MaxAttempts {
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
	p.s.cfg.Tenants.StepFailed(p.tenant)
	p.s.obsStepsFailed.Inc()
	p.s.obsDeadLetterStp.Inc()
	_ = p.s.cfg.Registry.UpdateJob(p.JobID, func(j *registry.JobRecord) {
		j.AddDeadLetter(registry.DeadLetter{
			Kind:      "step",
			FamilyID:  st.fam.ID,
			GroupID:   step.GroupID,
			Extractor: step.Extractor,
			Attempts:  ss.attempts,
			Reason:    cause,
			At:        p.s.clk.Now(),
		})
	})
	st.extracted = append(st.extracted, validate.StepResult{
		GroupID: step.GroupID, Extractor: step.Extractor,
		OK: false, Err: "dead-lettered: " + cause,
	})
	p.s.obs.Emitf(p.JobID, obs.EvTaskDeadLettered,
		"family=%s group=%s extractor=%s attempts=%d cause=%s",
		st.fam.ID, step.GroupID, step.Extractor, ss.attempts, cause)
	p.journal(journal.Record{
		Type: journal.RecStepDeadLettered, FamilyID: st.fam.ID,
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
		p.s.obs.Emitf(p.JobID, obs.EvTaskFailed, "task=%s steps=%d err=%s", t.id, len(t.refs), info.Err)
		p.failSteps(t.refs, "failed", info.Err)
	case info.Status == faas.TaskLost:
		// Allocation ended (Figure 8 restart): resubmit with bounded
		// retry so a permanently dead endpoint cannot loop forever.
		p.s.obs.Emitf(p.JobID, obs.EvTaskLost, "task=%s steps=%d", t.id, len(t.refs))
		if requeued := p.failSteps(t.refs, "lost", info.Err); requeued > 0 {
			p.TasksResubmitted++
			p.s.obsTasksResubmitted.Inc()
			p.s.obs.Emitf(p.JobID, obs.EvTaskResubmitted, "task=%s steps=%d requeued after backoff", t.id, requeued)
		}
	}
	p.advanceAll(t.refs) // suggestions and ended backoffs become new steps
}

// resolveResult matches a successful task's result to the steps it
// carried. Ref i takes outcome i only if that outcome is about ref i's
// family and group; a ref the result does not account for is a bad
// result for that step (retried like any failure — left alone it would
// stay in flight for ever), and outcomes beyond the refs are for steps
// this task was never given: dropped, and counted as duplicates.
func (p *pump) resolveResult(t *task, body []byte) {
	var result taskResult
	if err := decodeTaskResult(body, &result); err != nil {
		p.failSteps(t.refs, "bad_result", err.Error())
		p.s.obs.Emitf(p.JobID, obs.EvTaskFailed, "task=%s bad result payload", t.id)
		return
	}
	p.s.obs.Emitf(p.JobID, obs.EvTaskCompleted, "task=%s extractor=%s outcomes=%d",
		t.id, result.Extractor, len(result.Outcomes))
	// The estimator is fed submit→terminal latency, the span the hedge
	// deadline is armed over, so endpoint queueing is priced into the
	// deadline, not counted against it. Without hedging nobody asks it.
	var e2e time.Duration
	if p.s.hedge.Enabled {
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
		p.s.obsHedgeFenced.Add(float64(surplus))
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
			p.s.obsFamiliesFailed.Inc()
			p.s.obs.Emitf(p.JobID, obs.EvFamilyFailed,
				"family=%s failed: %d steps dead-lettered", st.fam.ID, st.deadLettered)
			return
		}
		// Inside the straggler budget: the family finishes degraded — its
		// validation record ships below with the dead-lettered steps
		// marked OK:false, preserving the partial metadata instead of
		// discarding the whole family.
		p.FamiliesDegraded++
		p.s.obs.Emitf(p.JobID, obs.EvFamilyDone,
			"family=%s degraded: %d steps dead-lettered within straggler budget",
			st.fam.ID, st.deadLettered)
	}
	files := make([]string, 0, len(st.fam.FileMeta))
	for f := range st.fam.FileMeta {
		files = append(files, f)
	}
	sort.Strings(files) // the same family writes the same document every run
	rec := validate.Record{
		JobID:     p.JobID,
		FamilyID:  st.fam.ID,
		Store:     st.fam.Store,
		BasePath:  st.fam.BasePath,
		Files:     files,
		Metadata:  st.results,
		Extracted: st.extracted,
	}
	start := len(p.resultBuf)
	// The record splices metadata the worker already encoded (a dictionary
	// JSON cannot carry failed its step there), so nothing is left to fail.
	p.resultBuf, _ = validate.AppendRecord(p.resultBuf, &rec)
	p.pendingResults = append(p.pendingResults, p.resultBuf[start:])
	p.FamiliesDone++
	p.s.obsFamiliesDone.Inc()
	p.s.obs.Emitf(p.JobID, obs.EvFamilyDone, "family=%s steps=%d", st.fam.ID, len(st.extracted))
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
// admits new work (sites scanned in name order for determinism), else
// the origin site itself — a straggler is usually a property of the
// worker, not the step, so even a same-site duplicate tends to win.
func (p *pump) hedgeTarget(st *famState, extractor string) *Site {
	var cands []*Site
	p.s.mu.Lock()
	for name, site := range p.s.sites {
		if name != st.site.Name && site.HasCompute() {
			cands = append(cands, site)
		}
	}
	p.s.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool { return cands[i].Name < cands[j].Name })
	for _, site := range cands {
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
	sp := st.payload(step.GroupID)
	if target.Name != st.site.Name {
		sp.Stage, sp.FetchFrom = "", ""
		if target.Name != st.fam.Store {
			home, ok := p.s.Site(st.fam.Store)
			if !ok {
				return
			}
			sp.FetchFrom = home.TransferID
		}
	}
	if p.feed(target, dispatchItem{extractor: step.Extractor, hedge: true, ref: stepRef{st, idx}, sp: sp}) {
		p.StepsHedged++
		p.s.obsHedges.Inc()
		p.s.obs.Emitf(p.JobID, obs.EvTaskHedged,
			"family=%s group=%s extractor=%s site=%s speculative duplicate",
			st.fam.ID, step.GroupID, step.Extractor, target.Name)
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
		all := true
		for _, r := range t.refs {
			if r.st.steps[r.idx].phase < stepDone {
				all = false
				break
			}
		}
		if all && p.s.cfg.FaaS.CancelTask(t.id) {
			p.s.obsHedgeCancelled.Inc()
		}
	}
	ss.tasks = nil
}
