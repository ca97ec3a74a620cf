package validate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"xtract/internal/fastjson"
	"xtract/internal/store"
)

// encoded renders each step's dictionary the way the worker does, and
// the record's metadata the way the pump does.
func encoded(blocks map[string]map[string]interface{}) fastjson.Raw {
	return fastjson.AppendRawMap(nil, encodedBlocks(blocks))
}

func encodedBlocks(blocks map[string]map[string]interface{}) map[string]fastjson.Raw {
	out := make(map[string]fastjson.Raw, len(blocks))
	for k, md := range blocks {
		raw, err := fastjson.AppendCanonical(nil, md)
		if err != nil {
			panic(err)
		}
		out[k] = raw
	}
	return out
}

// rawMap and fileList encode a record's metadata and files as the pump
// does.
func rawMap(m map[string]fastjson.Raw) fastjson.Raw { return fastjson.AppendRawMap(nil, m) }
func fileList(files ...string) fastjson.Raw         { return fastjson.AppendStrings(nil, files) }

func recordCases() []Record {
	full := encodedBlocks(map[string]map[string]interface{}{
		"g0/keyword": {"terms": []interface{}{"a", "b"}, "score": 0.25},
		"g0/tabular": {"rows": float64(10), "null_cells": nil},
	})
	full["g1/nil"] = nil // a step that produced no metadata
	return []Record{
		{},
		{JobID: "j", FamilyID: "f", Store: "local", BasePath: "/data",
			Files: fileList([]string{}...), Metadata: rawMap(map[string]fastjson.Raw{})},
		{JobID: "j1", FamilyID: "s:/p#0", Store: "petrel", BasePath: "/x/<&>",
			Files:    fileList("/x/a.csv", "/x/b.csv", "uni\u2028code"),
			Metadata: rawMap(full)},
	}
}

// TestAppendRecordFollowsStructTags keeps the body what Record's struct
// tags describe (fastjson.Raw marshals as its own bytes), so the format
// stays readable with stock tools.
func TestAppendRecordFollowsStructTags(t *testing.T) {
	for i, rec := range recordCases() {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendRecord(nil, &rec)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\nfast: %s\njson: %s", i, got, want)
		}
	}
}

// TestRecordCodecRoundTrip pins AppendRecord→DecodeRecord as the
// identity the result queue relies on between the Xtract service and
// the validation service, and that metadata crosses as bytes: sliced
// out of the body, not rebuilt.
func TestRecordCodecRoundTrip(t *testing.T) {
	for i, rec := range recordCases() {
		enc, err := AppendRecord(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		var back Record
		if err := DecodeRecord(enc, &back); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Errorf("case %d round trip:\n got: %#v\nwant: %#v", i, back, rec)
		}
		for name, raw := range map[string]fastjson.Raw{"files": back.Files, "metadata": back.Metadata} {
			if len(raw) == 0 || bytes.IndexByte(raw, '\\') >= 0 {
				continue // a string with an escape is re-encoded, to the same bytes
			}
			if at := bytes.Index(enc, raw); at < 0 || &enc[at] != &raw[0] {
				t.Fatalf("case %d: %s was copied out of the body", i, name)
			}
		}
	}
}

// TestDecodeRecordStrict pins the internal-format rules: exact lower-case
// keys, unknown keys skipped (the retired "extracted" member among them,
// whatever it holds), a repeated key replaces the earlier value, a
// metadata block is an object or null, and anything malformed is an
// error. Files and metadata that are not in canonical form come back in
// it: whitespace between members gone, strings as AppendString writes
// them, keys sorted, the last of a repeated key kept.
func TestDecodeRecordStrict(t *testing.T) {
	accept := []struct {
		doc  string
		want Record
	}{
		{`{}`, Record{}},
		{`{"JOB_ID":"x","Family_Id":"y","job_id":"j","extra":[{"deep":null}]}`, Record{JobID: "j"}},
		{`{"family_id":"a","family_id":"b","files":["x"],"files":null}`, Record{FamilyID: "b"}},
		{`{"metadata":{"g":{"a":1},"g":{"b":2}},"extracted":[{"ok":true}],"extracted":[{"err":"e","duration":5}]}`,
			Record{Metadata: fastjson.Raw(`{"g":{"b":2}}`)}},
		{`{"metadata":{"gone":null,"kept": { "k" : [1, 2] } },"files":[],"extracted":[]}`,
			Record{Files: fastjson.Raw(`[]`), Metadata: fastjson.Raw(`{"gone":null,"kept":{ "k" : [1, 2] }}`)}},
		{`{"metadata":null}`, Record{}},
		{`{"extracted":[{"duration":0.5}]}`, Record{}},
		{`{"extracted":[null]}`, Record{}},
		{`{"files":[ "a" ,"\u0062", "<"]}`, Record{Files: fastjson.Raw(`["a","b","\u003c"]`)}},
		{`{"metadata":{"b":null,"a":{}}}`, Record{Metadata: fastjson.Raw(`{"a":{},"b":null}`)}},
		{`{"metadata":{"a\u003c":{},"a":null}}`, Record{Metadata: fastjson.Raw(`{"a":null,"a\u003c":{}}`)}},
		{`{"metadata":{"a<":{}}}`, Record{Metadata: fastjson.Raw(`{"a\u003c":{}}`)}},
	}
	for _, c := range accept {
		var got Record
		if err := DecodeRecord([]byte(c.doc), &got); err != nil {
			t.Errorf("%s: %v", c.doc, err)
		} else if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got: %#v\nwant: %#v", c.doc, got, c.want)
		}
	}
	reject := []string{
		``, `null`, `[]`, `{"duration":}`, `{} trailing`,
		`{"job_id":null}`, `{"job_id":5}`, `{"files":["a",null]}`,
		`{"extracted":[1,]}`, `{"extracted":[nul]}`,
		`{"metadata":{"g":5}}`, `{"metadata":{"g":[1]}}`, `{"metadata":{"g":"s"}}`,
		`{"metadata":{"g":{"a":}}}`, `{"metadata":[]}`,
	}
	for _, doc := range reject {
		var got Record
		if err := DecodeRecord([]byte(doc), &got); err == nil {
			t.Errorf("decoder accepted %q as %#v", doc, got)
		}
	}
}

// TestPassthroughDocMatchesMapMarshal pins the hand-built passthrough
// document to json.Marshal of the map form it replaced.
func TestPassthroughDocMatchesMapMarshal(t *testing.T) {
	for _, rec := range recordCases()[1:] {
		if rec.FamilyID == "" {
			rec.FamilyID = "f"
		}
		doc, err := Passthrough{}.Validate(rec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(map[string]interface{}{
			"schema":   "passthrough/v1",
			"family":   rec.FamilyID,
			"store":    rec.Store,
			"path":     rec.BasePath,
			"files":    rec.Files,
			"metadata": rec.Metadata,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(doc, want) {
			t.Errorf("passthrough divergence:\nfast: %s\njson: %s", doc, want)
		}
	}
}

// TestMDFDocMatchesMapMarshal pins the hand-built MDF document to
// json.Marshal of the map form it replaced.
func TestMDFDocMatchesMapMarshal(t *testing.T) {
	rec := recordCases()[2]
	m := NewMDF("src-repo")
	doc, err := m.Validate(rec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(map[string]interface{}{
		"mdf": map[string]interface{}{
			"resource_type": "record",
			"schema":        "mdf.nulls",
			"scroll_id":     rec.FamilyID,
			"source_name":   "src-repo",
		},
		"origin": map[string]interface{}{
			"store": rec.Store,
			"path":  rec.BasePath,
		},
		"files":      rec.Files,
		"metadata":   rec.Metadata,
		"extractors": []string{"keyword", "nil", "tabular"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, want) {
		t.Errorf("mdf divergence:\nfast: %s\njson: %s", doc, want)
	}
}

// TestDocumentsCarryMetadataBytesVerbatim is the validators' side of the
// encode-once contract: whatever bytes a block arrives as are the bytes
// the document holds, so nothing between the worker and the destination
// decoded and re-encoded them. The block below is deliberately not
// canonical; a decode would have normalized it.
func TestDocumentsCarryMetadataBytesVerbatim(t *testing.T) {
	odd := fastjson.Raw(`{"z" : 1.50, "keywords":[ "b","a" ], "a":{"y":2,"x":1e0}}`)
	rec := Record{FamilyID: "f", Metadata: rawMap(map[string]fastjson.Raw{"g/keyword": odd, "g/none": nil})}
	for _, v := range []Validator{Passthrough{}, NewMDF("src")} {
		doc, err := v.Validate(rec)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"metadata":{"g/keyword":` + string(odd) + `,"g/none":null}`; !bytes.Contains(doc, []byte(want)) {
			t.Errorf("%s document rebuilt the block:\n%s", v.Name(), doc)
		}
		if !json.Valid(doc) {
			t.Errorf("%s document is not JSON: %s", v.Name(), doc)
		}
	}
}

// TestMDFClassifyFirstSchemaWins holds the one-scan classifier to the
// rule it replaced: the first schema, in declaration order, that any
// block's top-level keys satisfy -- whatever order the blocks come in.
func TestMDFClassifyFirstSchemaWins(t *testing.T) {
	m := NewMDF("x")
	cases := []struct {
		blocks map[string]fastjson.Raw
		want   string
	}{
		{map[string]fastjson.Raw{"a": fastjson.Raw(`{"keywords":[],"columns":[]}`)}, "mdf.tabular"},
		{map[string]fastjson.Raw{"a": fastjson.Raw(`{"keywords":[]}`), "b": fastjson.Raw(`{"rdf":[1]}`), "c": fastjson.Raw(`{"entries":1}`)}, "mdf.geometry"},
		{map[string]fastjson.Raw{"a": fastjson.Raw(`{"deep":{"structure":1}}`)}, "mdf.generic"},
		{map[string]fastjson.Raw{"a": nil, "b": fastjson.Raw(`null`), "c": fastjson.Raw(`{"structure":{"keywords":1}}`)}, "mdf.material"},
	}
	classify := func(m *MDF, blocks map[string]fastjson.Raw) (MDFSchema, error) {
		return m.scan(rawMap(blocks), func([]byte) {})
	}
	for _, c := range cases {
		got, err := classify(m, c.blocks)
		if err != nil || got.Name != c.want {
			t.Errorf("classify(%v) = %s, %v; want %s", c.blocks, got.Name, err, c.want)
		}
	}
	// Without a catch-all an unmatched record is invalid, and so is a
	// block that is not JSON.
	strict := &MDF{Schemas: DefaultMDFSchemas()[:3]}
	if _, err := classify(strict, map[string]fastjson.Raw{"a": fastjson.Raw(`{"keywords":1}`)}); !errors.Is(err, ErrInvalid) {
		t.Errorf("unmatched record: err = %v", err)
	}
	if _, err := classify(m, map[string]fastjson.Raw{"a": fastjson.Raw(`{"keywords":`)}); !errors.Is(err, ErrInvalid) {
		t.Errorf("malformed block: err = %v", err)
	}
}

// FuzzRecordRoundTrip: arbitrary bytes never panic the strict decoder,
// and any body it accepts re-encodes to a fixed point.
func FuzzRecordRoundTrip(f *testing.F) {
	for _, rec := range recordCases() {
		body, _ := AppendRecord(nil, &rec)
		f.Add(body)
	}
	f.Add([]byte(`{"metadata":{"g":null,"g":{}},"files":["\ud800"],"extracted":[{"duration":-1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec Record
		if DecodeRecord(data, &rec) != nil {
			return
		}
		enc, err := AppendRecord(nil, &rec)
		if err != nil {
			t.Fatalf("accepted %q but cannot re-encode: %v", data, err)
		}
		var again Record
		if err := DecodeRecord(enc, &again); err != nil {
			t.Fatalf("own encoding %q rejected: %v", enc, err)
		}
		enc2, _ := AppendRecord(nil, &again)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("not a fixed point:\n1: %s\n2: %s", enc, enc2)
		}
	})
}

// TestProcessCostDoesNotGrowWithMetadata is the white-box half of the
// same contract: the service splices a record's files and metadata into
// the document as they are, so what it allocates for a record is the same
// whether a block has one key or two thousand. A decode into maps
// allocates per key, thousands for the large record, and fails this at
// once. The slack is for fmt's buffer pool: the large record makes more
// garbage, a collection empties the pool, and the next Sprintf refills it
// with an allocation or two. The absolute bound is what a record costs:
// the document, the destination path, and the destination's copy and
// file node.
func TestProcessCostDoesNotGrowWithMetadata(t *testing.T) {
	const poolRefill, perRecord = 4, 4
	big := []byte(`{"keywords":[0,"v",{"n":null}]`)
	for i := 1; i < 2000; i++ {
		big = append(big, fmt.Sprintf(`,"k%d":[%d,"v",{"n":null}]`, i, i)...)
	}
	big = append(big, '}')
	for _, v := range []Validator{Passthrough{}, NewMDF("src")} {
		s := NewService(v, store.NewMemFS("dest", nil))
		measure := func(files fastjson.Raw, blocks map[string]fastjson.Raw) float64 {
			rec := Record{JobID: "job-1", FamilyID: "mdf:/data/exp1#0", Store: "petrel", BasePath: "/data/exp1",
				Files: files, Metadata: rawMap(blocks)}
			allocs := testing.AllocsPerRun(20, func() { s.process(&rec) })
			if got, _ := s.Dest.Read("/metadata/mdf__data_exp1_0.json"); !bytes.Contains(got, rec.Metadata) {
				t.Fatalf("%s wrote %s", v.Name(), got)
			}
			return allocs
		}
		one := func(md fastjson.Raw) map[string]fastjson.Raw { return map[string]fastjson.Raw{"g/keyword": md} }
		small := measure(fileList("/data/exp1/a"), one(fastjson.Raw(`{"keywords":1}`)))
		if large := measure(fileList("/data/exp1/a"), one(big)); large > small+poolRefill {
			t.Errorf("%s: a record with %d bytes of metadata cost %.0f allocations, one with 14 bytes %.0f",
				v.Name(), len(big), large, small)
		}
		shape := measure(fileList("/data/exp1/a.cif", "/data/exp1/b.xyz", "/data/exp1/OUTCAR"), map[string]fastjson.Raw{
			"g0/matio":   fastjson.Raw(`{"structure":{"n_atoms":8},"results":{"energy":-1.5}}`),
			"g1/keyword": fastjson.Raw(`{"keywords":["a","b"]}`),
		})
		if shape > perRecord {
			t.Errorf("%s: a record of three files and two blocks cost %.0f allocations, want at most %d",
				v.Name(), shape, perRecord)
		}
	}
}
