package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"xtract/internal/fastjson"
)

// taskPayloadCases spans the encoder surface: empty, nil vs empty
// slices/maps, optional fields, escaping torture, and unicode.
func taskPayloadCases() []taskPayload {
	return []taskPayload{
		{},
		{Extractor: "keyword", Site: "local", Steps: []stepPayload{}},
		{Extractor: "keyword", Site: "local", Checkpoint: true,
			Steps: []stepPayload{
				{FamilyID: "f1", GroupID: "g1", Files: map[string]string{"/a.txt": "/stage/a.txt"}},
				{FamilyID: "f2", GroupID: "g2", Files: map[string]string{}},
				{FamilyID: "f3", GroupID: "g3", FetchFrom: "gdrive-east"},
			}},
		{Extractor: `tab"ular\`, Site: "päth/<&>", Steps: []stepPayload{
			{FamilyID: "日本語", GroupID: "g\tid", Files: map[string]string{
				"z": "1", "a": "2", "\x01ctl": "\x7f", "uni\u2028code": "ok",
			}},
		}},
	}
}

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

func TestDecodeTaskPayloadEquivalence(t *testing.T) {
	docs := []string{
		`null`,
		`{}`,
		`{"extractor":"keyword","site":"local","steps":[{"family_id":"f","group_id":"g","files":{"a":"b"}}],"checkpoint":true}`,
		// Case-insensitive key fallback.
		`{"EXTRACTOR":"up","Site":"s","Steps":[{"FAMILY_ID":"f","Group_Id":"g","FILES":{"a":"b"},"Delete_After":true,"FETCH_FROM":"ep"}]}`,
		// Nulls leave fields untouched; null array elements become zero
		// structs; null map values become zero strings.
		`{"extractor":null,"steps":[null,{"family_id":"f","files":{"a":null}}],"checkpoint":null}`,
		// Unknown fields skipped, whatever their shape.
		`{"zzz":[1,{"q":[true,null]}],"extractor":"e","w":"x"}`,
		// Duplicate keys: struct fields take the last value, map members
		// merge, slices reset per occurrence.
		`{"extractor":"first","extractor":"second","steps":[{"files":{"a":"1"},"files":{"b":"2"}}],"steps":[{"group_id":"kept"}]}`,
		// Empty array becomes a non-nil empty slice.
		`{"steps":[]}`,
		// Number/string escapes inside values.
		`{"site":"\u65e5\u672c\u8a9e \uD83D\uDE00 \n<&>","steps":[{"files":{"\u0000k":"v"}}]}`,
	}
	for _, doc := range docs {
		var want taskPayload
		werr := json.Unmarshal([]byte(doc), &want)
		var got taskPayload
		gerr := decodeTaskPayload([]byte(doc), &got)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: error mismatch json=%v fast=%v", doc, werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\nfast: %#v\njson: %#v", doc, got, want)
		}
	}
	malformed := []string{
		``, `{`, `{"extractor":}`, `{"steps":5}`, `{"checkpoint":"yes"}`,
		`{} trailing`, `{"steps":[{}],}`,
	}
	for _, doc := range malformed {
		var want taskPayload
		if err := json.Unmarshal([]byte(doc), &want); err == nil {
			t.Fatalf("expected json to reject %q", doc)
		}
		var got taskPayload
		if err := decodeTaskPayload([]byte(doc), &got); err == nil {
			t.Errorf("fast decoder accepted %q", doc)
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
			{FamilyID: "f3", GroupID: "g<3>", OK: true, FromCheckpoint: true,
				ExtractMS: 1e21},
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
		{`{"outcomes":[{"metadata":null,"extract_ms":0.75,"from_checkpoint":true}]}`,
			taskResult{Outcomes: []stepOutcome{{ExtractMS: 0.75, FromCheckpoint: true}}}},
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

// TestTaskCodecRoundTrip pins encode→decode as the identity the
// dispatcher and handler rely on end to end.
func TestTaskCodecRoundTrip(t *testing.T) {
	for i, tp := range taskPayloadCases() {
		enc := encodeTaskPayload(nil, &tp)
		var back taskPayload
		if err := decodeTaskPayload(enc, &back); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		var want taskPayload
		if err := json.Unmarshal(enc, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, want) {
			t.Errorf("case %d round trip:\nfast: %#v\njson: %#v", i, back, want)
		}
	}
}

// FuzzTaskPayloadDecodeParity holds the fast decoder to encoding/json's
// accept/reject behavior and decoded state on arbitrary input.
func FuzzTaskPayloadDecodeParity(f *testing.F) {
	f.Add([]byte(`{"extractor":"e","site":"s","steps":[{"family_id":"f","group_id":"g","files":{"a":"b"},"delete_after":true}],"checkpoint":true}`))
	f.Add([]byte(`{"steps":[null],"STEPS":[]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want taskPayload
		werr := json.Unmarshal(data, &want)
		var got taskPayload
		gerr := decodeTaskPayload(data, &got)
		if werr == nil {
			if gerr != nil {
				t.Fatalf("json accepted, fast rejected %q: %v", data, gerr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("state divergence on %q:\nfast: %#v\njson: %#v", data, got, want)
			}
		} else if gerr == nil {
			t.Fatalf("json rejected (%v), fast accepted %q", werr, data)
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
