package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
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
				Metadata: map[string]interface{}{
					"terms": []interface{}{"a", "b"}, "score": 0.5,
					"nested": map[string]interface{}{"n": nil, "t": true},
				}},
			{FamilyID: "f2", GroupID: "g2", Err: "read /x: boom\n", ExtractMS: 0},
			{FamilyID: "f3", GroupID: "g3", OK: true, FromCheckpoint: true,
				ExtractMS: 1e21},
		}},
	}
}

func TestEncodeTaskResultEquivalence(t *testing.T) {
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
	// NaN metadata must fail, exactly as encoding/json does.
	bad := taskResult{Outcomes: []stepOutcome{{OK: true,
		Metadata: map[string]interface{}{"x": math.NaN()}}}}
	if _, err := json.Marshal(bad); err == nil {
		t.Fatal("expected json to reject NaN")
	}
	if _, err := encodeTaskResult(nil, &bad); err == nil {
		t.Error("fast encoder accepted NaN metadata")
	}
}

func TestDecodeTaskResultEquivalence(t *testing.T) {
	docs := []string{
		`null`,
		`{}`,
		`{"extractor":"e","outcomes":[{"family_id":"f","group_id":"g","ok":true,"metadata":{"a":1,"b":[true,null,"s"]},"extract_ms":0.75}]}`,
		`{"Extractor":"e","OUTCOMES":[{"ok":false,"err":"boom","extract_ms":3}]}`,
		`{"outcomes":[null,{"metadata":{"m":{"deep":-2.5e-3}},"from_checkpoint":true}]}`,
		`{"outcomes":[{"metadata":{"k":"1"},"metadata":{"k2":"2"}}]}`,
		`{"outcomes":[]}`,
	}
	for _, doc := range docs {
		var want taskResult
		werr := json.Unmarshal([]byte(doc), &want)
		var got taskResult
		gerr := decodeTaskResult([]byte(doc), &got)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: error mismatch json=%v fast=%v", doc, werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\nfast: %#v\njson: %#v", doc, got, want)
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

func FuzzTaskResultDecodeParity(f *testing.F) {
	f.Add([]byte(`{"extractor":"e","outcomes":[{"family_id":"f","ok":true,"metadata":{"a":[1,2]},"extract_ms":0.5,"from_checkpoint":true}]}`))
	f.Add([]byte(`{"outcomes":[{"err":"x","extract_ms":1e3}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want taskResult
		werr := json.Unmarshal(data, &want)
		var got taskResult
		gerr := decodeTaskResult(data, &got)
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
