package core

import (
	"context"
	"fmt"

	"xtract/internal/cache"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/fastjson"
)

// stepPayload is one (family, group) extraction within an Xtract batch.
type stepPayload struct {
	FamilyID string
	GroupID  string
	// Files lists the group's files by their original paths, in path
	// order: the names the extractor's input is keyed by, so metadata
	// refers to a file's home location and not to a staging copy. It is
	// the family's own slice, read by every execution of the step.
	Files []string
	// Stage is the prefix the execution site reads them under: its staging
	// directory for a prefetched family, empty for files read in place or
	// fetched.
	Stage string
	// FetchFrom, when set, names the transfer-fabric endpoint to download
	// each file from at extraction time (the direct HTTPS/Drive-API path
	// for sites without a shared file system).
	FetchFrom string
	// ContentHash is the group's content fingerprint, set when the step is
	// cacheable: the worker files its result in the result cache under it.
	ContentHash string
}

// taskPayload is the payload of one FaaS task: an Xtract batch of steps
// that share an extractor. The function it is submitted to is bound to its
// site. Once submitted nobody writes it: its steps' file lists are the
// family's, read by every other execution of the same steps too.
type taskPayload struct {
	Extractor string
	Steps     []stepPayload
}

// stepOutcome is the result of one step within a task.
type stepOutcome struct {
	FamilyID string
	GroupID  string
	OK       bool
	Err      string
	// Metadata is the extractor's dictionary in canonical form, encoded
	// here in the worker and never parsed again on its way to the
	// destination document: the step's own exact-size copy, never
	// written again. Empty when the extractor returned none.
	Metadata  fastjson.Raw
	ExtractMS float64
}

// taskResult is what the extractor function returns: one outcome per
// step of its payload, in order.
type taskResult struct {
	Extractor string
	Outcomes  []stepOutcome
}

// makeHandler builds the FaaS function body for one extractor at one
// site: take the Xtract batch, read each group's files from the site's
// data layer, apply the extractor, file each cacheable result in the
// result cache, and return the batched outcomes (Listing 1 of the paper).
// Anything but a *taskPayload fails the task. The steps of a task share
// one stepScratch, so a step allocates what it reads and one copy of its
// metadata; the handler itself is shared by concurrent endpoint workers
// and holds none.
func (s *Service) makeHandler(site *Site, ext extractors.Extractor) faas.Handler {
	return func(ctx context.Context, payload any) (any, error) {
		task, ok := payload.(*taskPayload)
		if !ok {
			return nil, fmt.Errorf("core: bad task payload %T", payload)
		}
		result := &taskResult{Extractor: task.Extractor, Outcomes: make([]stepOutcome, 0, len(task.Steps))}
		sc := new(stepScratch)
		sc.buf = sc.first[:0]
		for i := range task.Steps {
			// The context ends with the task: a task declared lost or
			// cancelled stops here, between steps.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			result.Outcomes = append(result.Outcomes, s.runStep(site, ext, task.Extractor, &task.Steps[i], sc))
		}
		return result, nil
	}
}

// stepScratch is what one task's steps reuse, one after another: the map
// of a step's file contents and the group handed to the extractor, which
// may keep neither once it returns (extractors.Extractor), and the buffer
// its metadata is encoded into before the outcome takes a copy. The
// buffer starts in first, inside the scratch's own allocation, so a step
// whose metadata fits encodes it without growing one.
type stepScratch struct {
	files map[string][]byte
	group family.Group
	buf   []byte
	first [1024]byte
}

// runStep executes one step. It reads step and never writes it: the
// step's files are already in path order, the order they are read in.
func (s *Service) runStep(site *Site, ext extractors.Extractor, extractor string, step *stepPayload, sc *stepScratch) stepOutcome {
	out := stepOutcome{FamilyID: step.FamilyID, GroupID: step.GroupID}
	if h := s.cfg.ExtractFaults; h != nil {
		panics, err := h.ExtractFault(extractor, step.GroupID)
		if panics {
			// Crash the worker mid-step; the endpoint's panic recovery
			// turns this into a TaskFailed the pump retries.
			panic(fmt.Sprintf("faultinject: extractor %s group %s", extractor, step.GroupID))
		}
		if err != nil {
			out.Err = err.Error()
			return out
		}
	}
	if sc.files == nil {
		sc.files = make(map[string][]byte, len(step.Files))
	}
	clear(sc.files)
	for _, orig := range step.Files {
		var data []byte
		var err error
		if step.FetchFrom != "" {
			// Direct download from the remote data layer (Listing 1's
			// GoogleDriveDownloader path).
			data, err = s.cfg.Fabric.Fetch(step.FetchFrom, step.Stage+orig)
		} else {
			data, err = site.Store.Read(step.Stage + orig)
		}
		if err != nil {
			out.Err = fmt.Sprintf("read %s%s: %v", step.Stage, orig, err)
			return out
		}
		sc.files[orig] = data
	}

	sc.group = family.Group{ID: step.GroupID, Extractor: extractor, Files: step.Files}
	start := s.clk.Now()
	md, err := extract(ext, &sc.group, sc.files)
	out.ExtractMS = float64(s.clk.Since(start).Microseconds()) / 1000
	if err != nil {
		out.Err = err.Error()
		return out
	}
	if out.setMetadata(md, &sc.buf) && step.ContentHash != "" {
		// The one record a worker leaves of finished work, under the key
		// the pump probes: a task lost after this step still has it, and
		// the retry commits it from the cache instead of extracting again.
		s.cfg.Cache.PutRaw(cache.Key{ContentHash: step.ContentHash, Extractor: ext.Name(),
			Version: extractors.VersionOf(ext)}, out.Metadata)
	}
	return out
}

// extract runs one step's extraction. An extractor that panics on a
// file's content fails that step, like any error it could have returned,
// and not the task: its batch-mates share nothing with it but a worker.
func extract(ext extractors.Extractor, g *family.Group, files map[string][]byte) (md map[string]interface{}, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("extractor panic: %v", r)
		}
	}()
	return ext.Extract(g, files)
}

// setMetadata completes a successful outcome with the one encoding its
// metadata ever gets, made in buf and copied out at its exact size: the
// pump and the result cache keep the copy, and buf serves the next step.
// A dictionary JSON cannot carry (NaN, Inf, an unencodable type) fails
// the step, not the batch it shares a task with.
func (out *stepOutcome) setMetadata(md map[string]interface{}, buf *[]byte) bool {
	if len(md) > 0 {
		raw, err := fastjson.AppendCanonical((*buf)[:0], md)
		*buf = raw[:0]
		if err != nil {
			out.Err = "encode metadata: " + err.Error()
			return false
		}
		out.Metadata = append(make(fastjson.Raw, 0, len(raw)), raw...)
	}
	out.OK = true
	return true
}
