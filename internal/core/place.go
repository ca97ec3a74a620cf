package core

import (
	"log/slog"

	"xtract/internal/cache"
	"xtract/internal/family"
	"xtract/internal/journal"
	"xtract/internal/obs"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/transfer"
)

// This file is placement: where a family runs, how its files get there
// (in place, fetched per file, or staged by the prefetcher), and how a
// ready step reaches its site's shard.

// setFamPhase is the one place a family changes phase: its entry in
// pump.fams follows, and so do the per-phase counts the loop's
// termination test reads.
func (p *pump) setFamPhase(st *famState, to famPhase) {
	if st.phase != 0 {
		p.famCount[st.phase]--
	}
	p.famCount[to]++
	st.phase = to
	if to == famFinished {
		p.fams[st.fam.ID] = finishedFam
	} else {
		p.fams[st.fam.ID] = st
	}
}

// placeFamily runs the placement policy and routes the family either
// straight to dispatch or through the prefetcher. The policy sees the
// other compute sites in name order: a seeded policy repeats itself.
func (p *pump) placeFamily(fam family.Family) {
	home, ok := p.s.Site(fam.Store)
	if !ok {
		p.failFamily(fam.ID, "unknown home site "+fam.Store, 0)
		return
	}
	p.alternates = p.alternates[:0]
	for _, site := range p.s.siteList() {
		if site.Name != home.Name && site.HasCompute() {
			p.alternates = append(p.alternates, site.state())
		}
	}
	st := &famState{fam: fam}
	targetName := p.s.cfg.Policy.Place(&st.fam, home.state(), p.alternates)
	target, ok := p.s.Site(targetName)
	if !ok || !target.HasCompute() {
		// No compute anywhere reachable: the family cannot be processed.
		p.failFamily(fam.ID, "no compute site for placement", 0)
		return
	}
	st.site = target
	st.plan.Init(&st.fam)
	// A family of one group, the common case, has its one step in place.
	st.steps = st.oneStep[:0]
	if target.Name != home.Name && !target.DirectFetch {
		p.stageFamily(st, home)
		return
	}
	// The files are read where they are: by the home site's own workers,
	// or — with no shared file system at the target — downloaded one by
	// one from the home data layer at extraction time (Table 3's pods).
	if target.Name != home.Name {
		st.fetchFrom = home.Name
	}
	p.setFamPhase(st, famRunning)
	p.advance(st) // a family served entirely from the result cache finishes right here
}

// stageFamily sends a family's files to its execution site through the
// prefetcher. The target must have room for the family's bytes (Listing
// 2's available_gb): when the chosen site is full, another compute site
// with space takes the family; with none, the family fails.
func (p *pump) stageFamily(st *famState, home *Site) {
	need := st.fam.TotalBytes()
	if !st.site.reserveStage(need) {
		st.site = nil
		for _, site := range p.s.siteList() {
			if site.Name != home.Name && site.HasCompute() && site.reserveStage(need) {
				st.site = site
				break
			}
		}
		if st.site == nil {
			p.failFamily(st.fam.ID, "no staging capacity", 0)
			return
		}
	}
	// Every family file lands under the target's stage dir.
	st.stage = st.site.StagePath
	pairs := make([]transfer.FilePair, len(st.fam.FileMeta))
	for i, m := range st.fam.FileMeta {
		pairs[i] = transfer.FilePair{Src: m.Path, Dst: st.stage + m.Path}
	}
	st.prefetch = transfer.PrefetchTask{FamilyID: st.fam.ID, Src: home.Name, Dst: st.site.Name, Pairs: pairs}
	st.stageAttempts = 1
	p.s.cfg.Prefetcher.Stage(st.prefetch, &p.events)
	p.setFamPhase(st, famStaging)
	p.s.obs.Event(p.JobID, obs.EvFamilyStaging, slog.String("family", st.fam.ID),
		slog.String("dst", st.site.Name), slog.Int("files", len(pairs)))
}

// failStaging is staging's failure transition: the retry policy either
// arms a re-send of the family's prefetch task (the family stays in
// staging meanwhile) or the family is abandoned.
func (p *pump) failStaging(st *famState, cause string) {
	d, cause, again := p.retry(stepRef{st, -1},
		st.fam.ID+"/stage", st.stageAttempts, "staging", cause)
	if !again {
		p.setFamPhase(st, famFinished)
		p.unstage(st)
		p.failFamily(st.fam.ID, cause, st.stageAttempts)
		return
	}
	p.s.obs.Event(p.JobID, obs.EvTaskRetried, slog.String("family", st.fam.ID),
		slog.Int("attempt", st.stageAttempts), slog.Duration("backoff", d), slog.String("cause", cause))
}

// failFamily abandons a family: the trace records why, and the job
// record gets a family-level dead letter so no metadata is lost without
// an audit entry. Its ID keeps a tombstone, like any finished family's.
func (p *pump) failFamily(famID, reason string, attempts int) {
	p.fams[famID] = finishedFam
	p.FamiliesFailed++
	p.FamiliesDeadLettered++
	dl := registry.DeadLetter{Kind: "family", FamilyID: famID, Attempts: attempts, Reason: reason, At: p.s.clk.Now()}
	p.addDeadLetter(dl)
	p.s.obs.Warn(p.JobID, obs.EvFamilyFailed, slog.String("family", famID), slog.String("cause", reason))
	p.journal(journal.Record{Type: journal.RecFamilyFailed, FamilyID: famID, At: dl.At, Attempt: attempts, Reason: reason})
}

// unstage ends a staged family's claim on its site. With DeleteStaged the
// copies go — once per family, after its last step, because the groups of
// a family share files — and their bytes return to the staging budget.
// Only a staged family has a prefetch task.
func (p *pump) unstage(st *famState) {
	if st.prefetch.Pairs == nil || !st.site.DeleteStaged {
		return
	}
	for _, pair := range st.prefetch.Pairs {
		_ = st.site.Store.Delete(pair.Dst) // a copy that never arrived is not an error
	}
	st.site.releaseStage(st.fam.TotalBytes())
}

// dispatch routes one ready step to its site's shard.
func (p *pump) dispatch(st *famState, idx int) {
	if p.feed(st.site, dispatchItem{extractor: st.steps[idx].step.Extractor, ref: stepRef{st, idx}, sp: st.payload(idx)}) {
		st.steps[idx].phase = stepInflight
	}
}

// payload is what a worker at the family's site is told about one of its
// steps: the group's files, each named once by its original path, where
// that site finds them and, for a cacheable step, the content hash the
// worker files its result under.
func (st *famState) payload(idx int) stepPayload {
	ss := &st.steps[idx]
	return stepPayload{
		FamilyID:    st.fam.ID,
		GroupID:     ss.step.GroupID,
		Files:       st.groupFiles(ss.step.GroupID),
		Stage:       st.stage,
		Staged:      st.prefetch.Pairs,
		FetchFrom:   st.fetchFrom,
		ContentHash: ss.key.ContentHash,
	}
}

// feed hands one execution to a site's shard and counts it live.
// Fair-share admission happens here: the pump blocks until its tenant is
// granted a task slot (shards keep releasing slots independently, so a
// blocked pump starves no one but itself), then the send blocks only when
// the shard is feedDepth steps behind — back-pressure, bounded by the
// shard's own drain rate — and aborts if the job ends first. The shard
// releases the slot when the step's task ends (or in its shutdown sweep).
func (p *pump) feed(site *Site, it dispatchItem) bool {
	waited, err := p.s.cfg.Tenants.AcquireTask(p.jobCtx, p.tenant)
	if err != nil {
		return false // job over; the controller reclaimed the slot internally
	}
	if waited {
		p.s.obs.Event(p.JobID, obs.EvTenantThrottled, slog.String("tenant", p.tenant),
			slog.String("family", it.sp.FamilyID), slog.String("group", it.sp.GroupID),
			slog.String("extractor", it.extractor))
	}
	it.readyAt = p.s.clk.Now()
	select {
	case p.shardFor(site).feed <- it:
		it.ref.st.steps[it.ref.idx].live++
		return true
	case <-p.jobCtx.Done():
		p.s.cfg.Tenants.ReleaseTasks(p.tenant, 1)
		return false
	}
}

// stepCacheKey derives the cache key for one step from the group's
// crawl-time content fingerprints. ok is false — the step is uncacheable
// — when no cache is configured, the job opted out, or any group member
// lacks a content hash.
func (p *pump) stepCacheKey(st *famState, step scheduler.Step) (cache.Key, bool) {
	if p.s.cfg.Cache == nil || p.noCache {
		return cache.Key{}, false
	}
	fp, ok := cache.GroupFingerprint(st.groupFiles(step.GroupID), func(f string) string {
		m, _ := st.fam.Meta(f)
		return m.ContentHash
	})
	if !ok {
		return cache.Key{}, false
	}
	return cache.Key{
		ContentHash: fp,
		Extractor:   step.Extractor,
		Version:     p.s.extractorVersion(step.Extractor),
	}, true
}

// groupFiles lists the files of one of the family's groups.
func (st *famState) groupFiles(groupID string) []string {
	for i := range st.fam.Groups {
		if g := &st.fam.Groups[i]; g.ID == groupID {
			return g.Files
		}
	}
	return nil
}
