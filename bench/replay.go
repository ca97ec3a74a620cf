package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"xtract/internal/auth"
	"xtract/internal/cache"
	"xtract/internal/clock"
	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/journal"
	"xtract/internal/queue"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/tenant"
	"xtract/internal/transfer"
	"xtract/internal/validate"
)

// Layer replay: each layer's public functions called alone, from one
// goroutine, on inputs taken from the workload's own corpus and
// documents. The numbers are per-operation costs of a layer in
// isolation; multiplied by the call rates the traced window counted,
// they say how much of cpu_us_per_step a layer can account for.

const (
	replayLoops = 5
	replayOps   = 10_000
)

// A replay loop stops at replayOps operations or replayBudget of wall
// time, whichever comes first: a 1 µs operation gets its 10k repetitions,
// a 1 ms one does not hold the run up for 50 s. The smoke test shortens it.
var replayBudget = 60 * time.Millisecond

// replay calls fn repeatedly — fn does a batch of work and returns how
// many units it did — and returns the median over replayLoops loops of
// microseconds per unit.
func replay(fn func() int) float64 {
	var perOp []float64
	for l := 0; l < replayLoops; l++ {
		units := 0
		t0 := time.Now()
		for units < replayOps && time.Since(t0) < replayBudget {
			units += fn()
		}
		if units > 0 {
			perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/1e3/float64(units))
		}
	}
	return median(perOp)
}

// corpus is the replay input drawn from the workload: its first job's
// repository, crawled once.
type corpus struct {
	src     store.Store
	roots   []string
	lib     *extractors.Library
	grouper crawler.GroupingFunc
	bodies  [][]byte        // family queue bodies, as the crawler sends them
	fams    []family.Family // the same, decoded
	dirs    [][]family.Group
}

func grouperByName(name string, lib *extractors.Library) (crawler.GroupingFunc, error) {
	switch name {
	case "", "single":
		return crawler.SingleFileGrouper(lib), nil
	case "matio":
		return crawler.MatIOGrouper(lib), nil
	}
	return nil, fmt.Errorf("replay: no grouper %q", name)
}

// crawl runs the crawler over the corpus into a private queue and
// returns the family bodies it sent.
func (c *corpus) crawl(fingerprint bool) ([][]byte, error) {
	q := queue.New("replay-families", clock.NewReal())
	cr := crawler.New(c.src, c.grouper, q)
	cr.Fingerprint = fingerprint
	if _, err := cr.Crawl(context.Background(), c.roots); err != nil {
		return nil, err
	}
	return q.Drain(), nil
}

func loadCorpus(p *plan) (*corpus, error) {
	repo := p.next(0, 0).req.Repos[0]
	c := &corpus{roots: repo.Roots, lib: p.library}
	if c.lib == nil {
		c.lib = extractors.DefaultLibrary()
	}
	for _, s := range p.sites {
		if s.name == repo.Site {
			c.src = s.store
		}
	}
	if c.src == nil {
		return nil, fmt.Errorf("replay: no site %q", repo.Site)
	}
	var err error
	if c.grouper, err = grouperByName(repo.Grouper, c.lib); err != nil {
		return nil, err
	}
	if c.bodies, err = c.crawl(false); err != nil {
		return nil, err
	}
	if len(c.bodies) == 0 {
		return nil, fmt.Errorf("replay: crawl of %v found no families", c.roots)
	}
	for _, b := range c.bodies {
		var f family.Family
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, err
		}
		c.fams = append(c.fams, f)
	}
	// Group lists per directory, the crawler's input to min-transfers.
	var walk func(dir string) error
	walk = func(dir string) error {
		infos, err := c.src.List(dir)
		if err != nil {
			return err
		}
		var files []store.FileInfo
		for _, fi := range infos {
			if fi.IsDir {
				if err := walk(fi.Path); err != nil {
					return err
				}
			} else {
				files = append(files, fi)
			}
		}
		if len(files) > 0 {
			if g := c.grouper(dir, files); len(g) > 0 {
				c.dirs = append(c.dirs, g)
			}
		}
		return nil
	}
	for _, r := range c.roots {
		if err := walk(r); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// replayLayers fills the R metrics of m.
func replayLayers(e *env, m map[string]float64) error {
	c, err := loadCorpus(e.plan)
	if err != nil {
		return err
	}
	clk := clock.NewReal()

	// auth: what every API request pays before its handler runs.
	issuer := auth.NewIssuer([]byte(authKey), clk)
	tok := issuer.Issue("client-00", []string{auth.ScopeExtract, auth.ScopeCrawl}, time.Hour)
	m["auth.validate_us"] = replay(func() int {
		if _, err := issuer.Require(tok, auth.ScopeExtract); err != nil {
			panic(err)
		}
		return 1
	})

	// tenant: one task-slot grant and its release, two tenants taking
	// turns, never contended.
	tc := tenant.NewController(tenant.Config{Clock: clk, TaskSlots: 16})
	ids := [2]string{"client-00", "client-01"}
	turn := 0
	m["tenant.acquire_us"] = replay(func() int {
		id := ids[turn&1]
		turn++
		if _, err := tc.AcquireTask(context.Background(), id); err != nil {
			panic(err)
		}
		tc.ReleaseTasks(id, 1)
		return 1
	})

	// registry: one job-record update among a thousand records.
	reg := registry.New(clk, 0)
	var jobIDs []string
	for i := 0; i < 1000; i++ {
		jobIDs = append(jobIDs, reg.CreateJob("client-00", c.roots, time.Now()))
	}
	next := 0
	m["registry.job_update_us"] = replay(func() int {
		_ = reg.UpdateJob(jobIDs[next%len(jobIDs)], func(r *registry.JobRecord) { r.GroupsDone++ })
		next++
		return 1
	})

	// crawler: list, group, package and enqueue; with fingerprints it
	// also reads and hashes every file.
	var crawlErr error
	crawlCost := func(fp bool) float64 {
		return replay(func() int {
			bodies, err := c.crawl(fp)
			if err != nil {
				crawlErr = err
			}
			return len(bodies)
		})
	}
	m["crawler.crawl_us_per_family"] = crawlCost(true)
	m["crawler.crawl_nofp_us_per_family"] = crawlCost(false)
	if crawlErr != nil {
		return crawlErr
	}

	rng := rand.New(rand.NewSource(1))
	m["family.mintransfers_us_per_group"] = replay(func() int {
		n := 0
		for _, groups := range c.dirs {
			family.MinTransfers(groups, 16, rng)
			n += len(groups)
		}
		return n
	})

	m["scheduler.plan_us_per_family"] = replay(func() int {
		for i := range c.fams {
			scheduler.BuildPlan(&c.fams[i])
		}
		return len(c.fams)
	})

	// queue: one message's life, in batches of 16 bodies of the sizes
	// the crawler sends.
	q := queue.New("replay", clk)
	batch := c.bodies
	if len(batch) > 16 {
		batch = batch[:16]
	}
	m["queue.cycle_us_per_msg"] = replay(func() int {
		q.SendBatch(batch)
		msgs := q.Receive(len(batch), time.Minute)
		receipts := make([]string, len(msgs))
		for i, msg := range msgs {
			receipts[i] = msg.Receipt
		}
		q.DeleteBatch(receipts)
		return len(msgs)
	})

	if m["faas.roundtrip_us_per_task"], err = replayFaaS(clk); err != nil {
		return err
	}
	if m["transfer.us_per_file"], err = replayTransfer(clk, c); err != nil {
		return err
	}

	// extractors: every group of the corpus through its first extractor,
	// priced per kilobyte read. The outputs feed the cache replay.
	type step struct {
		ext   extractors.Extractor
		group *family.Group
		files map[string][]byte
		kb    float64
	}
	var steps []step
	var mds []map[string]interface{}
	for i := range c.fams {
		for g := range c.fams[i].Groups {
			grp := &c.fams[i].Groups[g]
			ext, err := c.lib.Get(grp.Extractor)
			if err != nil {
				return err
			}
			st := step{ext: ext, group: grp, files: make(map[string][]byte)}
			for _, f := range grp.Files {
				data, err := c.src.Read(f)
				if err != nil {
					return err
				}
				st.files[f] = data
				st.kb += float64(len(data)) / 1024
			}
			steps = append(steps, st)
		}
	}
	if len(steps) > replaySamples {
		steps = steps[:replaySamples]
	}
	var totalKB float64
	for _, st := range steps {
		totalKB += st.kb
	}
	perStep := replay(func() int {
		mds = mds[:0]
		for _, st := range steps {
			if md, err := st.ext.Extract(st.group, st.files); err == nil && md != nil {
				mds = append(mds, md)
			}
		}
		return len(steps)
	})
	m["extractors.us_per_kb"] = ratio(perStep*float64(len(steps)), totalKB)
	if len(mds) == 0 {
		return fmt.Errorf("replay: no extractor produced metadata")
	}

	// cache: a write-back and a hit, on the metadata just extracted.
	rc := cache.New(2 * len(mds))
	key := func(i int) cache.Key {
		return cache.Key{ContentHash: fmt.Sprintf("%032x", i), Extractor: "replay", Version: "1"}
	}
	keys := make([]cache.Key, len(mds))
	for i := range mds {
		keys[i] = key(i)
	}
	m["cache.put_us"] = replay(func() int {
		for i, md := range mds {
			rc.Put(keys[i], md)
		}
		return len(mds)
	})
	m["cache.get_us"] = replay(func() int {
		for i := range mds {
			if _, ok := rc.Get(keys[i]); !ok {
				panic("replay: cache entry missing")
			}
		}
		return len(mds)
	})

	// validate: decode one queued record and build its document, on the
	// records the traced window's validator saw.
	val := e.validator.inner
	e.validator.mu.Lock()
	records := e.validator.samples
	e.validator.mu.Unlock()
	if len(records) == 0 {
		return fmt.Errorf("replay: the traced window captured no validation records")
	}
	m["validate.process_us_per_doc"] = replay(func() int {
		for _, body := range records {
			var rec validate.Record
			if err := validate.DecodeRecord(body, &rec); err != nil {
				panic(err)
			}
			if _, err := val.Validate(rec); err != nil {
				panic(err)
			}
		}
		return len(records)
	})

	if err := replayJournal(m, mds); err != nil {
		return err
	}

	// fastjson: the destination documents of the last job, decoded and
	// re-encoded, priced per kilobyte.
	docs, kb, err := e.sampleDocs()
	if err != nil {
		return err
	}
	values := make([]interface{}, len(docs))
	perDoc := replay(func() int {
		for i, d := range docs {
			v, err := fastjson.DecodeValue(d)
			if err != nil {
				panic(err)
			}
			values[i] = v
		}
		return len(docs)
	})
	m["fastjson.decode_us_per_kb"] = ratio(perDoc*float64(len(docs)), kb)
	var buf []byte
	perDoc = replay(func() int {
		for _, v := range values {
			if buf, err = fastjson.AppendValue(buf[:0], v); err != nil {
				panic(err)
			}
		}
		return len(values)
	})
	m["fastjson.encode_us_per_kb"] = ratio(perDoc*float64(len(docs)), kb)
	return nil
}

// sampleDocs reads up to replaySamples documents back from the
// destination store and returns them with their total size in KB.
func (e *env) sampleDocs() ([][]byte, float64, error) {
	infos, err := e.dest.Store.List(destPrefix[:len(destPrefix)-1])
	if err != nil {
		return nil, 0, err
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Path < infos[j].Path })
	if len(infos) > replaySamples {
		infos = infos[:replaySamples]
	}
	var docs [][]byte
	var kb float64
	for _, fi := range infos {
		body, err := e.dest.Store.Read(fi.Path)
		if err != nil {
			return nil, 0, err
		}
		docs = append(docs, body)
		kb += float64(len(body)) / 1024
	}
	if len(docs) == 0 {
		return nil, 0, fmt.Errorf("replay: destination store is empty")
	}
	return docs, kb, nil
}

// replayFaaS prices one task's trip through the FaaS fabric with a
// handler that does nothing and no control-plane costs: submit in
// batches of 16, subscribe, wait for the completions, drain them.
func replayFaaS(clk clock.Clock) (float64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc := faas.NewService(clk, faas.Costs{})
	ep := faas.NewEndpoint("ep-replay", 8, clk)
	svc.RegisterEndpoint(ep)
	if err := ep.Start(ctx); err != nil {
		return 0, err
	}
	defer ep.Stop()
	fn, err := svc.RegisterFunction("noop", func(context.Context, []byte) ([]byte, error) { return nil, nil }, "")
	if err != nil {
		return 0, err
	}
	reqs := make([]faas.TaskRequest, 16)
	for i := range reqs {
		reqs[i] = faas.TaskRequest{FunctionID: fn, EndpointID: ep.ID, Payload: []byte(`{}`)}
	}
	sink := faas.NewCompletionSink()
	var ferr error
	cost := replay(func() int {
		ids, err := svc.SubmitBatch(reqs)
		if err != nil {
			ferr = err
			return len(reqs)
		}
		svc.Notify(ids, sink)
		for done := 0; done < len(ids); {
			<-sink.Ready()
			done += len(sink.Drain())
		}
		return len(ids)
	})
	return cost, ferr
}

// replayTransfer prices moving one file through the fabric over a free
// link: submit a job of up to 16 corpus files and wait for it.
func replayTransfer(clk clock.Clock, c *corpus) (float64, error) {
	fab := transfer.NewFabric(clk)
	fab.AddEndpoint("src", c.src)
	fab.AddEndpoint("dst", store.NewMemFS("dst", nil))
	var pairs []transfer.FilePair
	for i := range c.fams {
		for _, f := range c.fams[i].Files {
			if len(pairs) < 16 {
				pairs = append(pairs, transfer.FilePair{Src: f, Dst: "/stage" + f})
			}
		}
	}
	var terr error
	cost := replay(func() int {
		id, err := fab.Submit("src", "dst", pairs)
		if err == nil {
			_, err = fab.Wait(id)
		}
		if err != nil {
			terr = err
		}
		return len(pairs)
	})
	return cost, terr
}

// replayJournal prices the journal three ways: the asynchronous append
// path on a free device (records buffered, one synchronous append as the
// barrier), one synchronous append on the modelled device, and replaying
// the log the first of these wrote.
func replayJournal(m map[string]float64, mds []map[string]interface{}) error {
	free := newMemJournal(nil)
	free.cost = 0
	jnl, err := journal.Open(free, journal.Options{CompactSegments: -1})
	if err != nil {
		return err
	}
	spec := &journal.JobSpec{Repos: []journal.RepoSpec{{Site: "replay", Roots: []string{"/"}, Grouper: "single"}}}
	if err := jnl.Append(journal.Record{Type: journal.RecJobSubmitted, JobID: "job-1", Spec: spec}); err != nil {
		return err
	}
	var jerr error
	seq, written := 0, 1
	m["journal.append_us_per_rec"] = replay(func() int {
		const n = 256
		for i := 0; i < n; i++ {
			seq++
			fam := fmt.Sprintf("replay:/d#%d", seq)
			if err := jnl.AppendAsync(journal.Record{
				Type: journal.RecStepCompleted, JobID: "job-1", FamilyID: fam, GroupID: fam + "#f0",
				Extractor: "replay", MetadataObj: mds[seq%len(mds)],
			}); err != nil {
				jerr = err
			}
		}
		if err := jnl.Append(journal.Record{Type: journal.RecFamilyEnqueued, JobID: "job-1", FamilyID: "barrier", Groups: 1}); err != nil {
			jerr = err
		}
		written += n + 1
		return n + 1
	})
	if jerr != nil {
		return jerr
	}
	if err := jnl.Close(); err != nil {
		return err
	}
	var rerr error
	m["journal.replay_us_per_rec"] = replay(func() int {
		if _, _, err := journal.Replay(free); err != nil {
			rerr = err
		}
		return written
	})
	if rerr != nil {
		return rerr
	}

	modelled, err := journal.Open(newMemJournal(nil), journal.Options{CompactSegments: -1})
	if err != nil {
		return err
	}
	m["journal.sync_append_us"] = replay(func() int {
		if err := modelled.Append(journal.Record{Type: journal.RecFamilyEnqueued, JobID: "job-1", FamilyID: "sync", Groups: 1}); err != nil {
			jerr = err
		}
		return 1
	})
	if jerr != nil {
		return jerr
	}
	return modelled.Close()
}
