package family

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// fullFamily exercises every field.
func fullFamily() Family {
	return Family{
		ID:    "site:/d#0",
		Files: []string{"/d/INCAR", "/d/OUTCAR"},
		Groups: []Group{
			{ID: "g0", Files: []string{"/d/INCAR", "/d/OUTCAR"}, Extractor: "matio"},
			{ID: "g1", Files: nil, Extractor: ""},
		},
		Store:    "site",
		BasePath: "/d",
		FileMeta: []FileMeta{
			{Path: "/d/INCAR", Size: 0, Extension: "incar"},
			{Path: "/d/OUTCAR", Size: 1 << 40, Extension: "", MimeType: "text/plain", ContentHash: "abc123"},
		},
	}
}

func TestFamilyCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		fam  Family
		// lossy marks inputs the body cannot carry exactly (invalid UTF-8
		// becomes U+FFFD, an empty file list is omitted); they must still agree
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
		{name: "file meta size only", fam: Family{FileMeta: []FileMeta{{Path: "/a", Size: -7}}}},
		{name: "file meta with hash", fam: Family{FileMeta: []FileMeta{{Path: "/a", Size: 3, ContentHash: "h"}}}},
		{name: "html and separators", fam: Family{
			ID:       "<a href=\"x\">&</a>",
			Files:    []string{"/p/\u2028line", "/p/\u2029para", "tab\there", "quote\"back\\slash", "\x00\x1f"},
			Store:    "日本語",
			BasePath: "/😀",
			FileMeta: []FileMeta{{Path: "/p/<&>", Size: 1, MimeType: "a/b&c"}},
		}},
		{name: "invalid utf8", lossy: true, fam: Family{
			ID: "bad\xffid", Files: []string{"\xc3\x28"},
			FileMeta: []FileMeta{{Path: "k\xfe", Extension: "\xed\xa0\x80"}},
		}},
		{name: "empty file meta", lossy: true, fam: Family{
			FileMeta: []FileMeta{}, Groups: []Group{{}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := AppendFamily(nil, &tc.fam)
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
			if again := AppendFamily(nil, &got); !tc.lossy && !bytes.Equal(again, body) {
				t.Errorf("re-encode = %s; want %s", again, body)
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

// FuzzAppendFamilyMatchesJSON: for any family encoding/json can hold,
// json.Unmarshal reads AppendFamily's body back as that family.
func FuzzAppendFamilyMatchesJSON(f *testing.F) {
	fam := fullFamily()
	f.Add(AppendFamily(nil, &fam))
	f.Add([]byte(`{"id":"a","files":null,"groups":[{"id":"g","files":[],"extractor":"x"}]}`))
	f.Add([]byte(`{"file_meta":[{"path":"\ud800","size":-0},{"size":1000}],"store":" "}`))
	f.Add([]byte(`{"unknown":[{"a":null}],"id":"\xff"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw Family
		if json.Unmarshal(data, &raw) != nil {
			return
		}
		// One trip through encoding/json first: an empty file list, which
		// omitempty drops, is not a value the body can hold.
		fam := viaJSON(t, raw)
		body := AppendFamily(nil, &fam)
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
		FileMeta: []FileMeta{{Path: "/data/d0042/f000017.txt", Size: 3, Extension: "txt", MimeType: "text/plain"}},
	}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = AppendFamily(buf[:0], &fam)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = json.Marshal(&fam)
		}
	})
}
