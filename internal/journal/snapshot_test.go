package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"xtract/internal/registry"
)

// TestSnapshotEncoderMatchesEncodingJSON pins the snapshot encoder to the
// State struct tags: each state below, written by appendStateJSON, must
// decode to exactly what encoding/json's encoding of it decodes to.
func TestSnapshotEncoderMatchesEncodingJSON(t *testing.T) {
	at := time.Date(2026, 8, 5, 12, 34, 56, 789123456, time.UTC)
	key := &CacheKey{ContentHash: `ab"c`, Version: "keyword@2"}
	full := &State{LastSeq: 42, Unknown: 3, Jobs: map[string]*JobState{
		`jo"b<1>\`: {ID: `jo"b<1>\`, Submitted: at.Format(time.RFC3339Nano),
			Spec: &JobSpec{Repos: []RepoSpec{{Site: "s", Roots: []string{"/p", "/q"}, Grouper: "matio",
				CrawlWorkers: 2, NoMinTransfers: true}}, Tenant: "alice"},
			Families: map[string]int{"s:/p#0": 3, "päth/<&>#1": 0},
			Steps: map[string]StepDone{
				StepKey("s:/p#0", "g\t0", "ключ"): {FamilyID: "s:/p#0", GroupID: "g\t0", Extractor: "ключ",
					Cached: true, CacheKey: key, Metadata: json.RawMessage(`{"score":0.5,"terms":["a","b"]}`)},
				// What an older snapshot may hold: a null body, no key.
				StepKey("f", "g", "noop"): {FamilyID: "f", GroupID: "g", Extractor: "noop", CacheKey: key,
					Metadata: json.RawMessage(`null`)},
				StepKey("f", "g2", "x"): {FamilyID: "f", GroupID: "g2", Extractor: "x"},
			},
			Retries: 2, DeadLettered: 1, FailedFams: 1,
			DeadLetters: []registry.DeadLetter{{Kind: "step", FamilyID: "f", GroupID: "g", Extractor: "x",
				Attempts: 3, Reason: `exhausted "retries"` + "\n", At: at}},
			LeaseNode: `n"1`, LeaseEpoch: 4, LeaseExpiry: at.Add(time.Second).Format(time.RFC3339Nano)},
		"job-2": {ID: "job-2", Terminal: true, Cancelled: true, State: "CANCELLED", Err: "context canceled",
			DeadLetters: []registry.DeadLetter{{Kind: "family", FamilyID: "f", Reason: "staging failed", At: at}}},
		"job-3": {ID: "job-3", Terminal: true, State: "COMPLETE", LeaseEpoch: 7},
		"job-4": {ID: "job-4", Spec: &JobSpec{}},
	}}
	for name, st := range map[string]*State{"full": full, "empty": NewState(), "no jobs": {LastSeq: 9}} {
		fast, err := appendStateJSON(nil, st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		slow, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var got, want State
		if err := json.Unmarshal(fast, &got); err != nil {
			t.Fatalf("%s: fast encoding is invalid JSON: %v\n%s", name, err, fast)
		}
		if err := json.Unmarshal(slow, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: encoder divergence:\nfast: %s\nslow: %s", name, fast, slow)
		}
	}
}

// TestLargeSnapshotReplays: a snapshot is one frame, bounded by its file
// and not by the segments' record bound. A live job whose fold passes
// 16 MiB compacts into a snapshot that replay reads back whole.
func TestLargeSnapshotReplays(t *testing.T) {
	const steps = 20000
	dir := memDir(t)
	j := mustOpen(t, dir, Options{CompactSegments: -1})
	if err := j.Append(Record{Type: RecJobSubmitted, JobID: "job-1", Spec: &JobSpec{}}); err != nil {
		t.Fatal(err)
	}
	md := json.RawMessage(`{"blob":"` + strings.Repeat("x", 900) + `"}`)
	for i := 1; i <= steps; i++ {
		if err := j.AppendAsync(Record{Type: RecStepCompleted, JobID: "job-1",
			FamilyID: fmt.Sprintf("fam-%d", i), GroupID: "g", Extractor: "noop",
			CacheKey: &CacheKey{ContentHash: fmt.Sprint(i), Version: "noop@1"}, Metadata: md}); err != nil {
			t.Fatal(err)
		}
	}
	j.Compact()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := dir.List()
	if len(names) != 1 || !strings.HasSuffix(names[0], ".snap") {
		t.Fatalf("files after compaction = %v, want one snapshot", names)
	}
	if data, _ := dir.Read(names[0]); len(data) <= maxRecordBytes {
		t.Fatalf("snapshot is %d bytes; the case needs one over %d", len(data), maxRecordBytes)
	}
	st, info, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotUsed != names[0] || st.LastSeq != steps+1 {
		t.Fatalf("replay = LastSeq %d, %+v; want %d from %s", st.LastSeq, info, steps+1, names[0])
	}
	if js := st.Jobs["job-1"]; js == nil || len(js.Steps) != steps {
		t.Fatalf("replay recovered job %+v, want its %d steps", js, steps)
	}
}

// The fold keeps exactly the steps recovery seeds: a cache key and an
// object body. A completion without either is not kept, a later one of
// the same step that cannot be seeded drops the earlier entry, and a
// no_cache job holds no step map at all.
func TestFoldKeepsOnlySeedableSteps(t *testing.T) {
	key := &CacheKey{ContentHash: "h", Version: "x@1"}
	obj := json.RawMessage(`{"v":1}`)
	step := func(seq uint64, job, group string, k *CacheKey, md json.RawMessage) Record {
		return Record{Seq: seq, Type: RecStepCompleted, JobID: job, FamilyID: "f", GroupID: group,
			Extractor: "x", CacheKey: k, Metadata: md}
	}
	st := NewState()
	for _, rec := range []Record{
		{Seq: 1, Type: RecJobSubmitted, JobID: "job-1", Spec: &JobSpec{}},
		step(2, "job-1", "seedable", key, obj),
		step(3, "job-1", "keyless", nil, obj),
		step(4, "job-1", "null", key, json.RawMessage(`null`)),
		step(5, "job-1", "empty", key, nil),
		step(6, "job-1", "redone", key, obj),
		step(7, "job-1", "redone", nil, obj),
		{Seq: 8, Type: RecJobSubmitted, JobID: "job-2", Spec: &JobSpec{NoCache: true}},
		step(9, "job-2", "g", nil, obj),
	} {
		st.Apply(rec)
	}
	steps := st.Jobs["job-1"].Steps
	if _, ok := steps[StepKey("f", "seedable", "x")]; !ok || len(steps) != 1 {
		t.Fatalf("job-1 folded %v; want only the seedable step", steps)
	}
	if steps := st.Jobs["job-2"].Steps; steps != nil {
		t.Fatalf("no_cache job folded %v", steps)
	}
}

// TestJobSnapshotIsACopy: whatever a caller does to a JobSnapshot result
// leaves the live fold as it was.
func TestJobSnapshotIsACopy(t *testing.T) {
	j := mustOpen(t, memDir(t), Options{})
	defer j.Close()
	for _, rec := range []Record{
		{Type: RecJobSubmitted, JobID: "job-1", Spec: &JobSpec{Repos: []RepoSpec{{Site: "local", Roots: []string{"/"}, Grouper: "single"}}}},
		{Type: RecFamilyEnqueued, JobID: "job-1", FamilyID: "f", Groups: 1},
		{Type: RecStepCompleted, JobID: "job-1", FamilyID: "f", GroupID: "g", Extractor: "x",
			CacheKey: &CacheKey{ContentHash: "h", Version: "x@1"}, Metadata: json.RawMessage(`{"v":1}`)},
		{Type: RecStepDeadLettered, JobID: "job-1", FamilyID: "f", GroupID: "g2", Extractor: "x", Reason: "boom"},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := j.JobSnapshot("job-1")
	want, _ := json.Marshal(before)
	js, _ := j.JobSnapshot("job-1")
	js.Spec.Repos[0].Roots[0] = "/elsewhere"
	js.Spec.Tenant = "mallory"
	js.Families["f2"] = 9
	js.Steps[StepKey("f", "g", "x")].CacheKey.ContentHash = "forged"
	js.Steps["other"] = StepDone{}
	js.DeadLetters[0].Reason = "rewritten"
	js.Retries = 7
	after, _ := j.JobSnapshot("job-1")
	if got, _ := json.Marshal(after); !bytes.Equal(got, want) {
		t.Fatalf("mutating a snapshot reached the live fold:\nbefore %s\nafter  %s", want, got)
	}
}
