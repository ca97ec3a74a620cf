package extractors

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/store"
)

func info(name string, mime string) store.FileInfo {
	return store.FileInfo{
		Path: "/" + name, Name: name,
		Extension: store.ExtensionOf(name), MimeType: mime,
	}
}

func TestDefaultLibraryComplete(t *testing.T) {
	l := DefaultLibrary()
	want := []string{
		"keyword", "tabular", "nullvalue", "imagesort", "images", "matio",
		"ase", "hierarchical", "semistructured", "pycode", "ccode",
		"entity", "compressed",
	}
	names := l.Names()
	if len(names) != len(want) {
		t.Fatalf("library has %d extractors, want %d: %v", len(names), len(want), names)
	}
	for _, w := range want {
		if _, err := l.Get(w); err != nil {
			t.Errorf("missing extractor %q", w)
		}
	}
}

func TestLibraryGetUnknown(t *testing.T) {
	l := NewLibrary()
	if _, err := l.Get("nope"); err == nil {
		t.Fatal("expected error for unknown extractor")
	}
}

func TestLibraryRegisterReplaces(t *testing.T) {
	l := NewLibrary(NewKeyword(5))
	l.Register(NewKeyword(10))
	if len(l.Names()) != 1 {
		t.Fatalf("names = %v", l.Names())
	}
	e, _ := l.Get("keyword")
	if e.(*Keyword).TopN != 10 {
		t.Fatal("re-registration did not replace")
	}
}

func TestCandidatesFor(t *testing.T) {
	l := DefaultLibrary()
	cases := []struct {
		info store.FileInfo
		want string
	}{
		{info("readme.txt", store.MimeText), "keyword"},
		{info("data.csv", store.MimeCSV), "tabular"},
		{info("fig.png", store.MimePNG), "imagesort"},
		{info("POSCAR", ""), "matio"},
		{info("sim.h5", store.MimeHDF), "hierarchical"},
		{info("conf.json", store.MimeJSON), "semistructured"},
		{info("run.py", ""), "pycode"},
		{info("main.c", ""), "ccode"},
		{info("archive.zip", store.MimeZip), "compressed"},
	}
	for _, c := range cases {
		got := l.CandidatesFor(c.info)
		found := false
		for _, name := range got {
			if name == c.want {
				found = true
			}
		}
		if !found {
			t.Errorf("CandidatesFor(%s) = %v, want to include %q", c.info.Name, got, c.want)
		}
	}
	// Directories never match.
	if got := l.CandidatesFor(store.FileInfo{Name: "dir", IsDir: true}); len(got) != 0 {
		t.Errorf("directory candidates = %v", got)
	}
}

func TestSuggestions(t *testing.T) {
	cases := []struct {
		md   string
		want []string
	}{
		{`{"xtract.suggest":["tabular"]}`, []string{"tabular"}},
		{`{"a":{"deep":[1,2]},"xtract.suggest":["a",3,"b"],"z":null}`, []string{"a", "b"}},
		{`{}`, nil},
		{`null`, nil},
		{``, nil},
		{`{"xtract.suggest":42}`, nil},
		// Only the top level counts: the key inside a nested block, or as
		// a string value, suggests nothing.
		{`{"nested":{"xtract.suggest":["tabular"]}}`, nil},
		{`{"note":"xtract.suggest"}`, nil},
	}
	for _, c := range cases {
		if got := Suggestions(fastjson.Raw(c.md)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Suggestions(%s) = %v, want %v", c.md, got, c.want)
		}
	}
}

// keywordsOf reads a result's "keywords" list the way a consumer of the
// document does: from its encoding.
func keywordsOf(t *testing.T, md map[string]interface{}) []KeywordWeight {
	t.Helper()
	raw, err := fastjson.AppendCanonical(nil, md["keywords"])
	if err != nil {
		t.Fatal(err)
	}
	var kws []KeywordWeight
	if err := json.Unmarshal(raw, &kws); err != nil {
		t.Fatalf("keywords %s: %v", raw, err)
	}
	return kws
}

func TestKeywordExtract(t *testing.T) {
	k := NewKeyword(5)
	g := &family.Group{ID: "g1"}
	text := `Perovskite solar cells demonstrate remarkable efficiency.
The perovskite structure enables efficient charge transport.
Perovskite materials are studied at the materials facility.`
	md, err := k.Extract(g, map[string][]byte{"/abstract.txt": []byte(text)})
	if err != nil {
		t.Fatal(err)
	}
	kws := keywordsOf(t, md)
	if len(kws) == 0 || len(kws) > 5 {
		t.Fatalf("keywords = %v", kws)
	}
	if kws[0].Keyword != "perovskite" {
		t.Fatalf("top keyword = %q, want perovskite", kws[0].Keyword)
	}
	for i := 1; i < len(kws); i++ {
		if kws[i].Weight > kws[i-1].Weight {
			t.Fatal("keywords not sorted by weight")
		}
	}
}

func TestKeywordStopwordsFiltered(t *testing.T) {
	k := NewKeyword(10)
	md, err := k.Extract(&family.Group{}, map[string][]byte{
		"/t.txt": []byte("the and with because through simulation simulation"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kw := range keywordsOf(t, md) {
		if stopwords[kw.Keyword] {
			t.Fatalf("stopword %q in keywords", kw.Keyword)
		}
	}
}

func TestKeywordEmptyFile(t *testing.T) {
	k := NewKeyword(5)
	md, err := k.Extract(&family.Group{}, map[string][]byte{"/empty.txt": nil})
	if err != nil {
		t.Fatal(err)
	}
	if md["tokens"].(int) != 0 {
		t.Fatalf("tokens = %v", md["tokens"])
	}
}

func TestKeywordSuggestsTabular(t *testing.T) {
	k := NewKeyword(5)
	csvish := "name,value,unit\ntemp,290,K\npressure,101,kPa\nhumidity,40,pct\n"
	md, err := k.Extract(&family.Group{}, map[string][]byte{"/data.txt": []byte(csvish)})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := fastjson.AppendCanonical(nil, md)
	if err != nil {
		t.Fatal(err)
	}
	sugg := Suggestions(raw)
	if len(sugg) != 1 || sugg[0] != "tabular" {
		t.Fatalf("suggestions = %v", sugg)
	}
}

func TestTabularExtract(t *testing.T) {
	tb := NewTabular()
	csv := "city,temp,rain\nchicago,12.5,1\nmadison,10.0,0\nlemont,11.0,1\n"
	md, err := tb.Extract(&family.Group{}, map[string][]byte{"/weather.csv": []byte(csv)})
	if err != nil {
		t.Fatal(err)
	}
	if md["tables"].(int) != 1 || md["rows"].(int) != 3 {
		t.Fatalf("md = %v", md)
	}
	cols := md["columns"].([]ColumnStats)
	if len(cols) != 3 {
		t.Fatalf("cols = %+v", cols)
	}
	if cols[0].Name != "city" || cols[0].Type != "string" || cols[0].Distinct != 3 {
		t.Fatalf("city col = %+v", cols[0])
	}
	if cols[1].Name != "temp" || cols[1].Type != "numeric" {
		t.Fatalf("temp col = %+v", cols[1])
	}
	if cols[1].Mean < 11.1 || cols[1].Mean > 11.2 {
		t.Fatalf("temp mean = %v", cols[1].Mean)
	}
	if cols[1].Min != 10.0 || cols[1].Max != 12.5 {
		t.Fatalf("temp min/max = %v/%v", cols[1].Min, cols[1].Max)
	}
}

func TestTabularHeaderless(t *testing.T) {
	tb := NewTabular()
	md, err := tb.Extract(&family.Group{}, map[string][]byte{
		"/nums.csv": []byte("1,2\n3,4\n5,6\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cols := md["columns"].([]ColumnStats)
	if cols[0].Name != "col0" {
		t.Fatalf("headerless col name = %q", cols[0].Name)
	}
	if md["rows"].(int) != 3 {
		t.Fatalf("rows = %v (header wrongly detected)", md["rows"])
	}
}

func TestTabularTSV(t *testing.T) {
	tb := NewTabular()
	md, err := tb.Extract(&family.Group{}, map[string][]byte{
		"/d.tsv": []byte("a\tb\n1\t2\n3\t4\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(md["columns"].([]ColumnStats)) != 2 {
		t.Fatal("TSV not sniffed")
	}
}

func TestTabularNotATable(t *testing.T) {
	tb := NewTabular()
	if _, err := tb.Extract(&family.Group{}, map[string][]byte{
		"/prose.csv": []byte("just prose without separators\n"),
	}); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("err = %v", err)
	}
}

func TestNullValueExtract(t *testing.T) {
	nv := NewNullValue()
	csv := "a,b,c\n1,NA,3\n4,,6\n7,8,-999\n"
	md, err := nv.Extract(&family.Group{}, map[string][]byte{"/d.csv": []byte(csv)})
	if err != nil {
		t.Fatal(err)
	}
	if md["null_cells"].(int) != 3 {
		t.Fatalf("null_cells = %v", md["null_cells"])
	}
	if md["total_cells"].(int) != 9 {
		t.Fatalf("total_cells = %v", md["total_cells"])
	}
	rate := md["null_rate"].(float64)
	if rate < 0.33 || rate > 0.34 {
		t.Fatalf("null_rate = %v", rate)
	}
	cols := md["null_columns"].([]string)
	if len(cols) != 3 { // b, b(empty), c — columns b and c have nulls... a has none
		// null columns are b (NA), b (empty), c (-999): distinct = b, c
		t.Logf("null columns = %v", cols)
	}
}

func TestIsNullCell(t *testing.T) {
	for _, v := range []string{"", "NA", "n/a", "NULL", " none ", "NaN", "-999", "?"} {
		if !IsNullCell(v) {
			t.Errorf("IsNullCell(%q) = false", v)
		}
	}
	for _, v := range []string{"0", "42", "data"} {
		if IsNullCell(v) {
			t.Errorf("IsNullCell(%q) = true", v)
		}
	}
}

func TestVersionOf(t *testing.T) {
	lib := DefaultLibrary()
	for _, name := range lib.Names() {
		ext, err := lib.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if v := VersionOf(ext); v == "" {
			t.Fatalf("extractor %s has empty version", name)
		}
	}
	// An extractor without a Versioner falls back to the default.
	if v := VersionOf(nil); v != DefaultVersion {
		t.Fatalf("VersionOf(nil) = %q", v)
	}
}
