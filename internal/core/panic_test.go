package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/scheduler"
	"xtract/internal/store"
)

// poisonExtractor stands in for a parser with an unchecked index, as
// parseOUTCAR had on an E-fermi line without a colon: fine on every file
// but the one that says "poison".
type poisonExtractor struct{}

func (poisonExtractor) Name() string                     { return "sizer" }
func (poisonExtractor) Container() string                { return "xtract-sizer" }
func (poisonExtractor) Applies(info store.FileInfo) bool { return info.Extension == "dat" }
func (poisonExtractor) Extract(_ *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	n := 0
	for _, data := range files {
		fields := strings.SplitN(string(data), ":", 2)
		if string(data) == "poison" {
			_ = fields[1] // index out of range [1] with length 1
		}
		n += len(data)
	}
	return map[string]interface{}{"bytes": n}, nil
}

func poisonHarness(t *testing.T) (*harness, *extractors.Library) {
	t.Helper()
	lib := extractors.NewLibrary(poisonExtractor{})
	h := newHarnessCfg(t, []siteSpec{{name: "theta", workers: 2}}, scheduler.LocalPolicy{},
		func(cfg *Config) { cfg.Library = lib })
	for i := 0; i < 7; i++ {
		if err := h.sites["theta"].Write(fmt.Sprintf("/repo/a%d.dat", i), []byte(fmt.Sprintf("value: %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Last in the listing, so the other families keep their IDs without it.
	if err := h.sites["theta"].Write("/repo/z.dat", []byte("poison")); err != nil {
		t.Fatal(err)
	}
	return h, lib
}

// TestExtractorPanicFailsItsStepNotItsTask runs one eight-step task whose
// fifth step panics inside the extractor: that outcome carries the error,
// the seven around it complete.
func TestExtractorPanicFailsItsStepNotItsTask(t *testing.T) {
	h, lib := poisonHarness(t)
	defer h.close()
	ext, _ := lib.Get("sizer")
	site, _ := h.svc.Site("theta")
	task := taskPayload{Extractor: "sizer"}
	for _, name := range []string{"a0", "a1", "a2", "a3", "z", "a4", "a5", "a6"} {
		p := "/repo/" + name + ".dat"
		task.Steps = append(task.Steps, stepPayload{FamilyID: "fam-" + name, GroupID: "g-" + name, Files: []string{p}})
	}
	body, err := h.svc.makeHandler(site, ext)(context.Background(), encodeTaskPayload(nil, &task))
	if err != nil {
		t.Fatalf("the task failed: %v", err)
	}
	var res taskResult
	if err := decodeTaskResult(body, &res); err != nil || len(res.Outcomes) != 8 {
		t.Fatalf("result %s: %v", body, err)
	}
	for i, out := range res.Outcomes {
		switch {
		case out.GroupID == "g-z":
			if out.OK || !strings.HasPrefix(out.Err, "extractor panic: ") || !strings.Contains(out.Err, "index out of range") {
				t.Errorf("poisoned step: ok=%v err=%q", out.OK, out.Err)
			}
		case !out.OK || out.Err != "" || !bytes.HasPrefix(out.Metadata, []byte(`{"bytes":`)):
			t.Errorf("step %d (%s) beside the poisoned one: ok=%v err=%q metadata=%s", i, out.GroupID, out.OK, out.Err, out.Metadata)
		}
	}
}

// TestExtractorPanicDeadLettersOneStep is the same through a job: the
// poisoned step is retried and dead-lettered as any step error is, no
// task is resubmitted on its account, and the other families' documents
// are the bytes a job without the poison file writes.
func TestExtractorPanicDeadLettersOneStep(t *testing.T) {
	run := func(poison bool) (JobStats, map[string][]byte) {
		t.Helper()
		h, lib := poisonHarness(t)
		defer h.close()
		if !poison {
			if err := h.sites["theta"].Delete("/repo/z.dat"); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
			SiteName: "theta", Roots: []string{"/repo"},
			Grouper: crawler.SingleFileGrouper(lib), CrawlWorkers: 1,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return stats, takeDocs(t, h, stats.FamiliesDone)
	}
	poisoned, docs := run(true)
	if poisoned.FamiliesDone != 7 || poisoned.FamiliesFailed != 1 || poisoned.StepsDeadLettered != 1 ||
		poisoned.StepsRetried != int64(DefaultRetryPolicy.MaxAttempts-1) || poisoned.TasksResubmitted != 0 {
		t.Fatalf("job over the poison file: %+v", poisoned)
	}
	clean, want := run(false)
	if clean.FamiliesDone != 7 || clean.FamiliesFailed != 0 || clean.StepsRetried != 0 {
		t.Fatalf("job without it: %+v", clean)
	}
	if len(docs) != 7 || !docsEqual(docs, want) {
		t.Fatalf("documents beside the poisoned family differ from a clean run's:\n got %q\nwant %q", docs, want)
	}
}
