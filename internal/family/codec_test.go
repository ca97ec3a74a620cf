package family

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// fullFamily exercises every field, nested metadata included.
func fullFamily() Family {
	return Family{
		ID:    "site:/d#0",
		Files: []string{"/d/INCAR", "/d/OUTCAR"},
		Groups: []Group{
			{ID: "g0", Files: []string{"/d/INCAR", "/d/OUTCAR"}, Extractor: "matio",
				Metadata: map[string]interface{}{
					"n": 3.5, "ok": true, "none": nil, "tags": []interface{}{"a", 1.0},
					"nest": map[string]interface{}{"deep": map[string]interface{}{"x": -1e-9}},
				}},
			{ID: "g1", Files: nil, Extractor: ""},
		},
		Store:    "site",
		BasePath: "/d",
		FileMeta: map[string]FileMeta{
			"/d/OUTCAR": {Size: 1 << 40, Extension: "", MimeType: "text/plain", ContentHash: "abc123"},
			"/d/INCAR":  {Size: 0, Extension: "incar"},
		},
		Metadata: map[string]interface{}{"crawl": map[string]interface{}{"depth": 2.0}},
	}
}

func TestFamilyCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		fam  Family
		// lossy marks inputs the body cannot carry exactly (invalid UTF-8
		// becomes U+FFFD, an empty map is omitted); they must still agree
		// with the oracle and be stable from the first decode on.
		lossy bool
	}{
		{name: "zero", fam: Family{}},
		{name: "full", fam: fullFamily()},
		{name: "empty slices", fam: Family{ID: "e", Files: []string{}, Groups: []Group{}}},
		{name: "nil slices", fam: Family{ID: "n", Groups: []Group{{ID: "g"}}}},
		{name: "empty group files", fam: Family{Groups: []Group{{Files: []string{}}}}},
		{name: "store only", fam: Family{Store: "s"}},
		{name: "base path only", fam: Family{BasePath: "/b"}},
		{name: "file meta size only", fam: Family{FileMeta: map[string]FileMeta{"/a": {Size: -7}}}},
		{name: "file meta with hash", fam: Family{FileMeta: map[string]FileMeta{"/a": {Size: 3, ContentHash: "h"}}}},
		{name: "html and separators", fam: Family{
			ID:       "<a href=\"x\">&</a>",
			Files:    []string{"/p/\u2028line", "/p/\u2029para", "tab\there", "quote\"back\\slash", "\x00\x1f"},
			Store:    "日本語",
			BasePath: "/😀",
			FileMeta: map[string]FileMeta{"/p/<&>": {Size: 1, MimeType: "a/b&c"}},
		}},
		{name: "invalid utf8", lossy: true, fam: Family{
			ID: "bad\xffid", Files: []string{"\xc3\x28"},
			FileMeta: map[string]FileMeta{"k\xfe": {Extension: "\xed\xa0\x80"}},
		}},
		{name: "empty maps", lossy: true, fam: Family{
			FileMeta: map[string]FileMeta{}, Metadata: map[string]interface{}{},
			Groups: []Group{{Metadata: map[string]interface{}{}}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, err := AppendFamily(nil, &tc.fam)
			if err != nil {
				t.Fatalf("AppendFamily: %v", err)
			}
			var got Family
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatalf("body is not JSON encoding/json reads: %v\n%s", err, body)
			}
			if want := viaJSON(t, tc.fam); !reflect.DeepEqual(got, want) {
				t.Errorf("%s reads back differently from json.Marshal's body\n got %#v\nwant %#v", body, got, want)
			}
			if !tc.lossy && !reflect.DeepEqual(got, tc.fam) {
				t.Errorf("round trip changed the family\n got %#v\nwant %#v", got, tc.fam)
			}
			again, err := AppendFamily(nil, &got)
			if err != nil || (!tc.lossy && !bytes.Equal(again, body)) {
				t.Errorf("re-encode = %s, %v; want %s", again, err, body)
			}
		})
	}
}

// viaJSON is f after one trip through encoding/json, the oracle: what a
// reader of json.Marshal's own body would hold.
func viaJSON(t *testing.T, f Family) Family {
	t.Helper()
	body, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	var out Family
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendFamilyRejectsUnencodableMetadata(t *testing.T) {
	for _, fam := range []Family{
		{Metadata: map[string]interface{}{"c": make(chan int)}},
		{Groups: []Group{{Metadata: map[string]interface{}{"f": func() {}}}}},
	} {
		if _, err := AppendFamily(nil, &fam); err == nil {
			t.Errorf("AppendFamily(%v) = nil error", fam)
		}
	}
}

// FuzzAppendFamilyMatchesJSON: for any family encoding/json can hold,
// json.Unmarshal reads AppendFamily's body back as that family.
func FuzzAppendFamilyMatchesJSON(f *testing.F) {
	fam := fullFamily()
	seed, _ := AppendFamily(nil, &fam)
	f.Add(seed)
	f.Add([]byte(`{"id":"a","files":null,"groups":[{"id":"g","files":[],"extractor":"x","metadata":{}}]}`))
	f.Add([]byte(`{"file_meta":{"\ud800":{"size":-0}},"metadata":{"n":1e308,"s":" "}}`))
	f.Add([]byte(`{"unknown":[{"a":null}],"id":"\xff"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw Family
		if json.Unmarshal(data, &raw) != nil {
			return
		}
		// One trip through encoding/json first: an empty map, which
		// omitempty drops, is not a value the body can hold.
		fam := viaJSON(t, raw)
		body, err := AppendFamily(nil, &fam)
		if err != nil {
			t.Fatalf("cannot encode %#v: %v", fam, err)
		}
		var back Family
		if err := json.Unmarshal(body, &back); err != nil {
			t.Fatalf("encoding/json rejects %s: %v", body, err)
		}
		if !reflect.DeepEqual(back, fam) {
			t.Fatalf("%s reads back as\n%#v\nwant\n%#v", body, back, fam)
		}
	})
}

// BenchmarkAppendFamily prices one encode of the orch-noop family shape
// (one file, one group) against json.Marshal.
func BenchmarkAppendFamily(b *testing.B) {
	fam := Family{
		ID: "cori:/data/d0042#17", Files: []string{"/data/d0042/f000017.txt"},
		Groups:   []Group{{ID: "/data/d0042/f000017.txt", Files: []string{"/data/d0042/f000017.txt"}, Extractor: "noop"}},
		Store:    "cori",
		BasePath: "/data/d0042",
		FileMeta: map[string]FileMeta{"/data/d0042/f000017.txt": {Size: 3, Extension: "txt", MimeType: "text/plain"}},
	}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = AppendFamily(buf[:0], &fam)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = json.Marshal(&fam)
		}
	})
}
