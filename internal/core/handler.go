package core

import (
	"context"
	"fmt"
	"sort"

	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/store"
)

// stepPayload is one (family, group) extraction within an Xtract batch.
type stepPayload struct {
	FamilyID string `json:"family_id"`
	GroupID  string `json:"group_id"`
	// Files lists the group's files by their original paths: the names the
	// extractor's input is keyed by, so metadata refers to a file's home
	// location and not to a staging copy.
	Files []string `json:"files"`
	// Stage is the prefix the execution site reads them under: its staging
	// directory for a prefetched family, empty for files read in place or
	// fetched.
	Stage string `json:"stage,omitempty"`
	// FetchFrom, when set, names the transfer-fabric endpoint to download
	// each file from at extraction time (the direct HTTPS/Drive-API path
	// for sites without a shared file system).
	FetchFrom string `json:"fetch_from,omitempty"`
}

// taskPayload is the body of one FaaS task: an Xtract batch of steps that
// share an extractor. The function it is submitted to is bound to its site.
type taskPayload struct {
	Extractor  string        `json:"extractor"`
	Steps      []stepPayload `json:"steps"`
	Checkpoint bool          `json:"checkpoint,omitempty"`
}

// stepOutcome is the result of one step within a task.
type stepOutcome struct {
	FamilyID string `json:"family_id"`
	GroupID  string `json:"group_id"`
	OK       bool   `json:"ok"`
	Err      string `json:"err,omitempty"`
	// Metadata is the extractor's dictionary in canonical form, encoded
	// here in the worker and never parsed again on its way to the
	// destination document. Empty when the extractor returned none.
	Metadata  fastjson.Raw `json:"metadata,omitempty"`
	ExtractMS float64      `json:"extract_ms"`
	// FromCheckpoint marks metadata reloaded from a checkpoint instead of
	// recomputed (the Figure 8 restart path).
	FromCheckpoint bool `json:"from_checkpoint,omitempty"`
}

// taskResult is the body returned by the extractor function.
type taskResult struct {
	Extractor string        `json:"extractor"`
	Outcomes  []stepOutcome `json:"outcomes"`
}

// checkpointDir holds every step checkpoint on a site's store.
const checkpointDir = "/xtract-checkpoint"

// checkpointPath is where a step's checkpoint lives on the site store.
func checkpointPath(familyID, groupID, extractor string) string {
	return fmt.Sprintf("%s/%s/%s-%s.json", checkpointDir,
		sanitizePath(familyID), sanitizePath(groupID), extractor)
}

func sanitizePath(id string) string {
	out := make([]rune, 0, len(id))
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// makeHandler builds the FaaS function body for one extractor at one
// site: deserialize the Xtract batch, read each group's files from the
// site's data layer, apply the extractor, optionally checkpoint, and
// return the batched outcomes (Listing 1 of the paper).
func (s *Service) makeHandler(site *Site, ext extractors.Extractor) func(context.Context, []byte) ([]byte, error) {
	return func(ctx context.Context, payload []byte) ([]byte, error) {
		var task taskPayload
		if err := decodeTaskPayload(payload, &task); err != nil {
			return nil, fmt.Errorf("core: bad task payload: %w", err)
		}
		result := taskResult{Extractor: task.Extractor}
		size := 64
		for _, step := range task.Steps {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
			out := s.runStep(site, ext, task, step)
			size += 96 + len(out.Err) + len(out.Metadata)
			result.Outcomes = append(result.Outcomes, out)
		}
		// The result buffer cannot be pooled: the pump slices each step's
		// metadata out of it and those slices live on in the cache and the
		// journal's state, so it is allocated once, sized for the batch.
		return encodeTaskResult(make([]byte, 0, size), &result)
	}
}

// runStep executes one step, honoring checkpoints.
func (s *Service) runStep(site *Site, ext extractors.Extractor, task taskPayload, step stepPayload) stepOutcome {
	out := stepOutcome{FamilyID: step.FamilyID, GroupID: step.GroupID}
	if h := s.cfg.ExtractFaults; h != nil {
		panics, err := h.ExtractFault(task.Extractor, step.GroupID)
		if panics {
			// Crash the worker mid-step; the endpoint's panic recovery
			// turns this into a TaskFailed the pump retries.
			panic(fmt.Sprintf("faultinject: extractor %s group %s", task.Extractor, step.GroupID))
		}
		if err != nil {
			out.Err = err.Error()
			return out
		}
	}
	var cpPath string
	if task.Checkpoint {
		cpPath = checkpointPath(step.FamilyID, step.GroupID, task.Extractor)
		if data, err := site.Store.Read(cpPath); err == nil {
			// A checkpoint file holds one JSON object (or null, for an
			// extractor that returned no metadata); anything else is
			// corrupt and falls through to re-extraction. The file is
			// re-encoded, not trusted to be canonical.
			if v, derr := fastjson.DecodeValue(data); derr == nil {
				if md, ok := v.(map[string]interface{}); ok || v == nil {
					if out.setMetadata(md) {
						out.FromCheckpoint = true
					}
					return out
				}
			}
		}
	}

	files := make(map[string][]byte, len(step.Files))
	sort.Strings(step.Files) // deterministic read order
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
		files[orig] = data
	}

	g := &family.Group{ID: step.GroupID, Extractor: task.Extractor, Files: step.Files}
	start := s.clk.Now()
	md, err := extract(ext, g, files)
	out.ExtractMS = float64(s.clk.Since(start).Microseconds()) / 1000
	if err != nil {
		out.Err = err.Error()
		return out
	}
	if out.setMetadata(md) && task.Checkpoint {
		// Flush each processed group's metadata to disk on completion
		// (the paper's 'checkpoint-flag').
		_ = site.Store.Write(cpPath, orNull(out.Metadata))
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
// metadata ever gets. A dictionary JSON cannot carry (NaN, Inf, an
// unencodable type) fails the step, not the batch it shares a task with.
func (out *stepOutcome) setMetadata(md map[string]interface{}) bool {
	if len(md) > 0 {
		raw, err := fastjson.AppendCanonical(nil, md)
		if err != nil {
			out.Err = "encode metadata: " + err.Error()
			return false
		}
		out.Metadata = raw
	}
	out.OK = true
	return true
}

// ReadStore reports the store a site exposes (exported for examples).
func (s *Site) ReadStore() store.Store { return s.Store }
