package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/scheduler"
)

// taskPayloadCases spans the encoder surface: empty, nil vs empty
// slices, optional fields, escaping torture, and unicode.
func taskPayloadCases() []taskPayload {
	return []taskPayload{
		{},
		{Extractor: "keyword", Steps: []stepPayload{}},
		{Extractor: "keyword",
			Steps: []stepPayload{
				{FamilyID: "f1", GroupID: "g1", Files: []string{"/a.txt", "/b.txt"}, Stage: "/stage", ContentHash: "9f86d081"},
				{FamilyID: "f2", GroupID: "g2", Files: []string{}},
				{FamilyID: "f3", GroupID: "g3", FetchFrom: "gdrive-east"},
			}},
		{Extractor: `tab"ular\`, Steps: []stepPayload{
			{FamilyID: "日本語", GroupID: "g\tid", Stage: "päth/<&>",
				Files: []string{"z", "a", "\x01ctl", "\x7f", "uni\u2028code"}},
		}},
	}
}

// TestEncodeTaskPayloadEquivalence keeps the body what the struct tags
// describe, so the format stays readable with stock tools.
func TestEncodeTaskPayloadEquivalence(t *testing.T) {
	for i, tp := range taskPayloadCases() {
		want, err := json.Marshal(tp)
		if err != nil {
			t.Fatal(err)
		}
		got := encodeTaskPayload(nil, &tp)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\nfast: %s\njson: %s", i, got, want)
		}
	}
}

// TestDecodeTaskPayloadStrict pins the internal-format rules for the
// payload: exact lower-case keys, unknown keys skipped, a repeated key
// replaces the earlier value, null only for files and steps (where the
// encoder writes it), and a value of the wrong type is an error.
func TestDecodeTaskPayloadStrict(t *testing.T) {
	accept := []struct {
		doc  string
		want taskPayload
	}{
		{`{}`, taskPayload{}},
		{`{"Extractor":"no","extractor":"e","STEPS":[{}],"site":"gone","zzz":[1,{"q":null}]}`, taskPayload{Extractor: "e"}},
		{`{"steps":[{"family_id":"f"}],"steps":null}`, taskPayload{}},
		{`{"steps":[]}`, taskPayload{Steps: []stepPayload{}}},
		{`{"steps":[{"Family_ID":"no","family_id":"f","group_id":"a","group_id":"g","FILES":["no"],"files":["/x"],"files":["/y","/z"],"stage":"/s","fetch_from":"ep","content_hash":"a","content_hash":"b"}]}`,
			taskPayload{Steps: []stepPayload{{FamilyID: "f", GroupID: "g", Files: []string{"/y", "/z"}, Stage: "/s", FetchFrom: "ep", ContentHash: "b"}}}},
		{`{"steps":[{"files":["/x"],"files":null},{"files":[]}]}`,
			taskPayload{Steps: []stepPayload{{}, {Files: []string{}}}}},
	}
	for _, c := range accept {
		var got taskPayload
		if err := decodeTaskPayload([]byte(c.doc), &got); err != nil {
			t.Errorf("%s: %v", c.doc, err)
		} else if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got: %#v\nwant: %#v", c.doc, got, c.want)
		}
	}
	reject := []string{
		``, `null`, `[]`, `{`, `{} trailing`, `{"steps":[{}],}`,
		`{"extractor":null}`, `{"extractor":5}`,
		`{"steps":5}`, `{"steps":{}}`, `{"steps":[null]}`, `{"steps":[[]]}`,
		`{"steps":[{"family_id":null}]}`, `{"steps":[{"group_id":7}]}`,
		`{"steps":[{"files":{"/a":"/a"}}]}`, `{"steps":[{"files":[null]}]}`, `{"steps":[{"files":"/a"}]}`,
		`{"steps":[{"stage":null}]}`, `{"steps":[{"stage":["/s"]}]}`, `{"steps":[{"fetch_from":true}]}`,
		`{"steps":[{"content_hash":null}]}`, `{"steps":[{"content_hash":7}]}`,
	}
	for _, doc := range reject {
		var got taskPayload
		if err := decodeTaskPayload([]byte(doc), &got); err == nil {
			t.Errorf("decoder accepted %q as %#v", doc, got)
		}
	}
}

func taskResultCases() []taskResult {
	return []taskResult{
		{},
		{Extractor: "keyword", Outcomes: []stepOutcome{}},
		{Extractor: "keyword", Outcomes: []stepOutcome{
			{FamilyID: "f", GroupID: "g", OK: true, ExtractMS: 1.25,
				Metadata: fastjson.Raw(`{"nested":{"n":null,"t":true},"score":0.5,"terms":["a","b"]}`)},
			{FamilyID: "f2", GroupID: "g2", Err: "read /x: boom\n", ExtractMS: 0},
			{FamilyID: "f3", GroupID: "g<3>", OK: true, ExtractMS: 1e21},
		}},
	}
}

// TestEncodeTaskResultFollowsStructTags keeps the body what the struct
// tags describe (fastjson.Raw marshals as its own bytes), so the format
// stays readable with stock tools.
func TestEncodeTaskResultFollowsStructTags(t *testing.T) {
	for i, tr := range taskResultCases() {
		want, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeTaskResult(nil, &tr)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\nfast: %s\njson: %s", i, got, want)
		}
	}
	bad := taskResult{Outcomes: []stepOutcome{{OK: true, ExtractMS: math.NaN()}}}
	if _, err := encodeTaskResult(nil, &bad); err == nil {
		t.Error("encoder accepted a NaN duration")
	}
}

// TestTaskResultRoundTrip pins encode→decode as the identity between the
// handler and the pump, and that metadata crosses as bytes sliced out of
// the task body, not rebuilt.
func TestTaskResultRoundTrip(t *testing.T) {
	for i, tr := range taskResultCases() {
		enc, err := encodeTaskResult(nil, &tr)
		if err != nil {
			t.Fatal(err)
		}
		var back taskResult
		if err := decodeTaskResult(enc, &back); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Errorf("case %d round trip:\n got: %#v\nwant: %#v", i, back, tr)
		}
		for _, o := range back.Outcomes {
			if len(o.Metadata) == 0 {
				continue
			}
			if at := bytes.Index(enc, o.Metadata); at < 0 || &enc[at] != &o.Metadata[0] {
				t.Fatalf("case %d: metadata of %s was copied out of the body", i, o.GroupID)
			}
		}
	}
}

// TestDecodeTaskResultStrict pins the internal-format rules: exact
// lower-case keys, unknown keys skipped, a repeated key replaces the
// earlier value, metadata is an object or null, and anything else --
// including a metadata value of another kind -- is a bad result.
func TestDecodeTaskResultStrict(t *testing.T) {
	accept := []struct {
		doc  string
		want taskResult
	}{
		{`{}`, taskResult{}},
		{`{"Extractor":"no","extractor":"e","OUTCOMES":[{}],"zzz":[1,{"q":null}]}`, taskResult{Extractor: "e"}},
		{`{"outcomes":[{"ok":true}],"outcomes":null}`, taskResult{}},
		{`{"outcomes":[{"metadata":{"k":"1"},"metadata": {"k2" : [2.50]} ,"err":"a","err":"b"}]}`,
			taskResult{Outcomes: []stepOutcome{{Err: "b", Metadata: fastjson.Raw(`{"k2" : [2.50]}`)}}}},
		{`{"outcomes":[{"metadata":null,"extract_ms":0.75}]}`,
			taskResult{Outcomes: []stepOutcome{{ExtractMS: 0.75}}}},
		{`{"outcomes":[]}`, taskResult{Outcomes: []stepOutcome{}}},
	}
	for _, c := range accept {
		var got taskResult
		if err := decodeTaskResult([]byte(c.doc), &got); err != nil {
			t.Errorf("%s: %v", c.doc, err)
		} else if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got: %#v\nwant: %#v", c.doc, got, c.want)
		}
	}
	reject := []string{
		``, `null`, `[]`, `{`, `{} trailing`, `{"extractor":null}`, `{"outcomes":5}`,
		`{"outcomes":[null]}`, `{"outcomes":[{"ok":"yes"}]}`, `{"outcomes":[{"extract_ms":"1"}]}`,
		`{"outcomes":[{"metadata":[1,2]}]}`, `{"outcomes":[{"metadata":"text"}]}`,
		`{"outcomes":[{"metadata":7}]}`, `{"outcomes":[{"metadata":true}]}`,
		`{"outcomes":[{"metadata":{"a":}}]}`, `{"outcomes":[{"metadata":{"a":1}]}`,
	}
	for _, doc := range reject {
		var got taskResult
		if err := decodeTaskResult([]byte(doc), &got); err == nil {
			t.Errorf("decoder accepted %q as %#v", doc, got)
		}
	}
}

// TestPayloadNamesEachFileOnce holds the payload the pump builds for a
// step to saying each thing once: every path appears once in the encoded
// body, and a staged family's prefix once per step, not once per file.
func TestPayloadNamesEachFileOnce(t *testing.T) {
	files := []string{"/d/run/INCAR", "/d/run/OUTCAR", "/d/run/POSCAR"}
	st := &famState{fam: family.Family{ID: "fam", Groups: []family.Group{{ID: "g", Files: files}}},
		steps: []stepState{{step: scheduler.Step{GroupID: "g", Extractor: "keyword"}}}}
	for _, stage := range []string{"", "/xtract-stage"} {
		st.stage = stage
		sp := st.payload(0)
		body := encodeStepPayload(nil, &sp)
		for _, f := range files {
			if n := bytes.Count(body, []byte(f)); n != 1 {
				t.Errorf("stage %q: %s appears %d times in %s", stage, f, n, body)
			}
		}
		if n := bytes.Count(body, []byte("/xtract-stage")); stage != "" && n != 1 {
			t.Errorf("the stage prefix appears %d times in %s", n, body)
		}
	}
}

// TestTaskCodecRoundTrip pins encode→decode as the identity the
// dispatcher and handler rely on end to end.
func TestTaskCodecRoundTrip(t *testing.T) {
	for i, tp := range taskPayloadCases() {
		enc := encodeTaskPayload(nil, &tp)
		var back taskPayload
		if err := decodeTaskPayload(enc, &back); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(back, tp) {
			t.Errorf("case %d round trip:\n got: %#v\nwant: %#v", i, back, tp)
		}
	}
}

// FuzzTaskPayloadRoundTrip: arbitrary bytes never panic the strict
// decoder, and any body it accepts re-encodes to a fixed point.
func FuzzTaskPayloadRoundTrip(f *testing.F) {
	for _, tp := range taskPayloadCases() {
		f.Add(encodeTaskPayload(nil, &tp))
	}
	f.Add([]byte(`{"steps":[{"files":["\ud800", "/a"],"stage":"/s","Stage":1,"content_hash":"\u00e9"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tp taskPayload
		if decodeTaskPayload(data, &tp) != nil {
			return
		}
		enc := encodeTaskPayload(nil, &tp)
		var again taskPayload
		if err := decodeTaskPayload(enc, &again); err != nil {
			t.Fatalf("own encoding %q rejected: %v", enc, err)
		}
		if enc2 := encodeTaskPayload(nil, &again); !bytes.Equal(enc, enc2) {
			t.Fatalf("not a fixed point:\n1: %s\n2: %s", enc, enc2)
		}
	})
}

// FuzzTaskResultRoundTrip: arbitrary bytes never panic the strict
// decoder, and any body it accepts re-encodes to a fixed point.
func FuzzTaskResultRoundTrip(f *testing.F) {
	for _, tr := range taskResultCases() {
		body, _ := encodeTaskResult(nil, &tr)
		f.Add(body)
	}
	f.Add([]byte(`{"outcomes":[{"err":"\ud800","extract_ms":1e3,"metadata":{"a":[1, 2]}}]}`))
	f.Add([]byte(`{"outcomes":[{"ok":true,"content_hash":"9f86d081","metadata":null}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr taskResult
		if decodeTaskResult(data, &tr) != nil {
			return
		}
		enc, err := encodeTaskResult(nil, &tr)
		if err != nil {
			t.Fatalf("accepted %q but cannot re-encode: %v", data, err)
		}
		var again taskResult
		if err := decodeTaskResult(enc, &again); err != nil {
			t.Fatalf("own encoding %q rejected: %v", enc, err)
		}
		enc2, _ := encodeTaskResult(nil, &again)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("not a fixed point:\n1: %s\n2: %s", enc, enc2)
		}
	})
}
