package transfer

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func prefetchTaskCases() []PrefetchTask {
	return []PrefetchTask{
		{},
		{JobID: "job-1", FamilyID: "f", Src: "petrel", Dst: "theta", Pairs: []FilePair{}},
		{JobID: `job-"n1"-7`, FamilyID: "f#1", Src: "s", Dst: "d", Pairs: []FilePair{
			{Src: "/data/a.h5", Dst: "/stage/a.h5"},
			{Src: `we"ird\`, Dst: "päth<&>\t"},
		}},
	}
}

func prefetchResultCases() []PrefetchResult {
	return []PrefetchResult{
		{},
		{JobID: "job-1", FamilyID: "f", OK: true, Bytes: 1 << 53, Elapsed: 1500 * time.Millisecond},
		{JobID: "job-n1-7", FamilyID: `f"#1\`, Err: "globus: rate limited\n", Bytes: -1, Elapsed: -time.Second},
	}
}

// TestPrefetchDecodeStrict pins the internal-format rules for both
// bodies: what the encoder wrote reads back as the value it was given,
// keys are exact and lower-case, unknown keys are skipped, a repeated key
// replaces the earlier value, and anything else is an error.
func TestPrefetchDecodeStrict(t *testing.T) {
	for i, task := range prefetchTaskCases() {
		var back PrefetchTask
		if err := DecodePrefetchTask(AppendPrefetchTask(nil, &task), &back); err != nil || !reflect.DeepEqual(back, task) {
			t.Errorf("task %d round trip: %#v, %v", i, back, err)
		}
	}
	for i, res := range prefetchResultCases() {
		var back PrefetchResult
		if err := DecodePrefetchResult(AppendPrefetchResult(nil, &res), &back); err != nil || back != res {
			t.Errorf("result %d round trip: %#v, %v", i, back, err)
		}
	}
	tasks := []struct {
		doc  string
		want PrefetchTask
	}{
		{`{}`, PrefetchTask{}},
		{`{"FAMILY_ID":"x","Src":"y","family_id":"f","extra":[{"deep":null}]}`, PrefetchTask{FamilyID: "f"}},
		{`{"job_id":"a","JOB_ID":"x","Job_id":"y","job_id":"job-2"}`, PrefetchTask{JobID: "job-2"}},
		{`{"pairs":[{"src":"a","dst":"b"}],"pairs":[{"dst":"kept","DST":"x"}]}`, PrefetchTask{Pairs: []FilePair{{Dst: "kept"}}}},
		{`{"pairs":[],"pairs":null, "dst" : "d"}`, PrefetchTask{Dst: "d"}},
	}
	for _, c := range tasks {
		var got PrefetchTask
		if err := DecodePrefetchTask([]byte(c.doc), &got); err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: %#v, %v", c.doc, got, err)
		}
	}
	for _, doc := range []string{``, `null`, `[]`, `{`, `{} x`, `{"src":null}`, `{"src":5}`, `{"job_id":null}`, `{"job_id":7}`,
		`{"pairs":{}}`, `{"pairs":[null]}`, `{"pairs":[{"src":null}]}`} {
		var got PrefetchTask
		if err := DecodePrefetchTask([]byte(doc), &got); err == nil {
			t.Errorf("task decoder accepted %q as %#v", doc, got)
		}
	}
	results := []struct {
		doc  string
		want PrefetchResult
	}{
		{`{}`, PrefetchResult{}},
		{`{"BYTES":12,"Elapsed":7,"ok":true,"bytes":9007199254740993}`, PrefetchResult{OK: true, Bytes: 9007199254740993}},
		{`{"err":"x","err":"y","elapsed":-5}`, PrefetchResult{Err: "y", Elapsed: -5}},
		{`{"JOB_ID":"x","job_id":"job-2","family_id":"f"}`, PrefetchResult{JobID: "job-2", FamilyID: "f"}},
	}
	for _, c := range results {
		var got PrefetchResult
		if err := DecodePrefetchResult([]byte(c.doc), &got); err != nil || got != c.want {
			t.Errorf("%s: %#v, %v", c.doc, got, err)
		}
	}
	for _, doc := range []string{``, `null`, `{`, `{} x`, `{"bytes":1.5}`, `{"elapsed":1e2}`,
		`{"elapsed":null}`, `{"ok":null}`, `{"ok":1}`, `{"err":null}`, `{"job_id":null}`, `{"job_id":[]}`} {
		var got PrefetchResult
		if err := DecodePrefetchResult([]byte(doc), &got); err == nil {
			t.Errorf("result decoder accepted %q as %#v", doc, got)
		}
	}
}

// FuzzPrefetchRoundTrip: arbitrary bytes never panic either strict
// decoder, and any body one accepts re-encodes to a fixed point.
func FuzzPrefetchRoundTrip(f *testing.F) {
	for _, task := range prefetchTaskCases() {
		f.Add(AppendPrefetchTask(nil, &task))
	}
	for _, res := range prefetchResultCases() {
		f.Add(AppendPrefetchResult(nil, &res))
	}
	f.Add([]byte(`{"job_id":"\ud800","pairs":[{"src":"\ud800"}],"PAIRS":[],"bytes":-0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var task, task2 PrefetchTask
		if DecodePrefetchTask(data, &task) == nil {
			enc := AppendPrefetchTask(nil, &task)
			if err := DecodePrefetchTask(enc, &task2); err != nil {
				t.Fatalf("own encoding %q rejected: %v", enc, err)
			}
			if enc2 := AppendPrefetchTask(nil, &task2); !bytes.Equal(enc, enc2) {
				t.Fatalf("not a fixed point:\n1: %s\n2: %s", enc, enc2)
			}
		}
		var res, res2 PrefetchResult
		if DecodePrefetchResult(data, &res) == nil {
			enc := AppendPrefetchResult(nil, &res)
			if err := DecodePrefetchResult(enc, &res2); err != nil {
				t.Fatalf("own encoding %q rejected: %v", enc, err)
			}
			if enc2 := AppendPrefetchResult(nil, &res2); !bytes.Equal(enc, enc2) {
				t.Fatalf("not a fixed point:\n1: %s\n2: %s", enc, enc2)
			}
		}
	})
}
