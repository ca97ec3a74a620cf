package extractors

import (
	"archive/zip"
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"xtract/internal/family"
	"xtract/internal/store"
)

func sampleXHD() *XHDNode {
	return &XHDNode{
		Name: "/", IsGroup: true,
		Attrs: map[string]string{"experiment": "aps-2021", "instrument": "beamline-7"},
		Children: []*XHDNode{
			{
				Name: "scan1", IsGroup: true,
				Attrs: map[string]string{"temperature": "290K"},
				Children: []*XHDNode{
					{Name: "counts", DType: 1, Dims: []uint64{4}, Payload: make([]byte, 32)},
					{Name: "image", DType: 2, Dims: []uint64{8, 8}, Payload: make([]byte, 64)},
				},
			},
			{Name: "energy", DType: 0, Dims: []uint64{2}, Payload: make([]byte, 16)},
		},
	}
}

func TestXHDRoundTrip(t *testing.T) {
	data := EncodeXHD(sampleXHD())
	root, err := DecodeXHD(data)
	if err != nil {
		t.Fatal(err)
	}
	if !root.IsGroup || len(root.Children) != 2 {
		t.Fatalf("root = %+v", root)
	}
	scan := root.Children[0]
	if scan.Name != "scan1" || scan.Attrs["temperature"] != "290K" {
		t.Fatalf("scan = %+v", scan)
	}
	img := scan.Children[1]
	if img.Elements() != 64 || img.DType != 2 {
		t.Fatalf("img = %+v", img)
	}
}

func TestXHDDecodeErrors(t *testing.T) {
	for _, bad := range [][]byte{
		nil,
		[]byte("XHD"),
		[]byte("NOPE1234"),
		[]byte("XHD1"),                  // truncated after magic
		append([]byte("XHD1"), 0, 0, 5), // truncated name
		append([]byte("XHD1"), 1, 0, 0, 0, 0, 9, 0), // bad dtype
	} {
		if _, err := DecodeXHD(bad); err == nil {
			t.Errorf("DecodeXHD(%v) succeeded", bad)
		}
	}
}

func TestXHDPropertyRoundTrip(t *testing.T) {
	f := func(name string, attrKey, attrVal string, payload []byte) bool {
		if len(name) > 1000 || len(attrKey) > 1000 || len(attrVal) > 1000 {
			return true
		}
		n := &XHDNode{
			Name: "root", IsGroup: true,
			Attrs: map[string]string{attrKey: attrVal},
			Children: []*XHDNode{
				{Name: name, DType: 2, Dims: []uint64{uint64(len(payload))}, Payload: payload},
			},
		}
		got, err := DecodeXHD(EncodeXHD(n))
		if err != nil {
			return false
		}
		return got.Attrs[attrKey] == attrVal &&
			len(got.Children) == 1 &&
			got.Children[0].Name == name &&
			bytes.Equal(got.Children[0].Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalExtract(t *testing.T) {
	h := NewHierarchical()
	md, err := h.Extract(&family.Group{}, map[string][]byte{
		"/sim.h5": EncodeXHD(sampleXHD()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if md["groups"].(int) != 2 || md["datasets"].(int) != 3 {
		t.Fatalf("md = %v", md)
	}
	if md["elements"].(uint64) != 4+64+2 {
		t.Fatalf("elements = %v", md["elements"])
	}
	if md["max_depth"].(int) != 3 {
		t.Fatalf("depth = %v", md["max_depth"])
	}
}

func TestHierarchicalNotApplicable(t *testing.T) {
	h := NewHierarchical()
	if _, err := h.Extract(&family.Group{}, map[string][]byte{
		"/x.h5": []byte("not xhd"),
	}); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("err = %v", err)
	}
}

func TestSemiStructuredJSON(t *testing.T) {
	s := NewSemiStructured()
	doc := `{"name":"mdf","version":2,"tags":["a","b"],"nested":{"deep":{"leaf":true}}}`
	md, err := s.Extract(&family.Group{}, map[string][]byte{"/m.json": []byte(doc)})
	if err != nil {
		t.Fatal(err)
	}
	docs := md["documents"].(map[string]interface{})
	jmd := docs["/m.json"].(map[string]interface{})
	if jmd["format"] != "json" {
		t.Fatalf("format = %v", jmd["format"])
	}
	if jmd["max_depth"].(int) != 3 {
		t.Fatalf("depth = %v", jmd["max_depth"])
	}
	paths := jmd["paths"].(map[string]string)
	if paths["/name"] != "string" || paths["/version"] != "number" {
		t.Fatalf("paths = %v", paths)
	}
	if paths["/nested/deep/leaf"] != "bool" {
		t.Fatalf("paths = %v", paths)
	}
}

func TestSemiStructuredXML(t *testing.T) {
	s := NewSemiStructured()
	doc := `<experiment id="7"><sample name="si"><temp>290</temp></sample><sample name="ge"/></experiment>`
	md, err := s.Extract(&family.Group{}, map[string][]byte{"/e.xml": []byte(doc)})
	if err != nil {
		t.Fatal(err)
	}
	docs := md["documents"].(map[string]interface{})
	xmd := docs["/e.xml"].(map[string]interface{})
	if xmd["format"] != "xml" || xmd["elements"].(int) != 4 {
		t.Fatalf("xmd = %v", xmd)
	}
}

func TestSemiStructuredYAML(t *testing.T) {
	s := NewSemiStructured()
	doc := "title: experiment 5\ncount: 12\nvalid: true\n# comment\n"
	md, err := s.Extract(&family.Group{}, map[string][]byte{"/m.yaml": []byte(doc)})
	if err != nil {
		t.Fatal(err)
	}
	docs := md["documents"].(map[string]interface{})
	ymd := docs["/m.yaml"].(map[string]interface{})
	keys := ymd["keys"].(map[string]string)
	if keys["title"] != "string" || keys["count"] != "number" || keys["valid"] != "bool" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestSemiStructuredInvalid(t *testing.T) {
	s := NewSemiStructured()
	if _, err := s.Extract(&family.Group{}, map[string][]byte{
		"/x.json": []byte("{invalid"),
	}); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("err = %v", err)
	}
}

func TestPythonCodeExtract(t *testing.T) {
	p := NewPythonCode()
	src := `# compute RDF
import numpy
from ase import io

class Analyzer:
    def run(self, atoms):
        # inner comment
        return atoms

def main():
    pass
`
	md, err := p.Extract(&family.Group{}, map[string][]byte{"/a.py": []byte(src)})
	if err != nil {
		t.Fatal(err)
	}
	funcs := md["functions"].([]string)
	if len(funcs) != 2 || funcs[0] != "run" || funcs[1] != "main" {
		t.Fatalf("functions = %v", funcs)
	}
	if classes := md["classes"].([]string); len(classes) != 1 || classes[0] != "Analyzer" {
		t.Fatalf("classes = %v", classes)
	}
	imports := md["imports"].([]string)
	if len(imports) != 2 || imports[0] != "ase" || imports[1] != "numpy" {
		t.Fatalf("imports = %v", imports)
	}
	if md["comments"].(int) != 2 {
		t.Fatalf("comments = %v", md["comments"])
	}
}

func TestCCodeExtract(t *testing.T) {
	c := NewCCode()
	src := `#include <stdio.h>
#include "sim.h"
/* block
   comment */
// line comment
int main(int argc, char **argv) {
    if (argc > 1) {
        return 1;
    }
    return 0;
}
static double *compute_rdf(double *coords, int n) {
    return 0;
}
`
	md, err := c.Extract(&family.Group{}, map[string][]byte{"/m.c": []byte(src)})
	if err != nil {
		t.Fatal(err)
	}
	funcs := md["functions"].([]string)
	if len(funcs) != 2 || funcs[0] != "main" || funcs[1] != "compute_rdf" {
		t.Fatalf("functions = %v", funcs)
	}
	includes := md["includes"].([]string)
	if len(includes) != 2 {
		t.Fatalf("includes = %v", includes)
	}
	if md["line_comments"].(int) != 1 || md["block_comments"].(int) != 1 {
		t.Fatalf("comments = %v/%v", md["line_comments"], md["block_comments"])
	}
}

func TestEntityExtract(t *testing.T) {
	e := NewEntity()
	text := `Data from Argonne National Laboratory, contact skluzacek@uchicago.edu.
See doi 10.1145/3431379.3460636. Samples of Fe2O3 and TiO2 under grant 70NANB19H005.`
	md, err := e.Extract(&family.Group{}, map[string][]byte{"/t.txt": []byte(text)})
	if err != nil {
		t.Fatal(err)
	}
	mentions := md["entities"].(Entities)
	types := make(map[string]int)
	for _, m := range mentions {
		types[m.Type]++
	}
	if types["organization"] < 1 {
		t.Fatalf("no organization found: %v", mentions)
	}
	if types["email"] != 1 || types["doi"] != 1 || types["grant"] != 1 {
		t.Fatalf("types = %v", types)
	}
	if types["chemical_formula"] < 2 {
		t.Fatalf("formulas = %v", mentions)
	}
}

func TestIsLikelyFormula(t *testing.T) {
	for _, good := range []string{"Fe2O3", "TiO2", "GaAs", "H2O"} {
		if !isLikelyFormula(good) {
			t.Errorf("%s rejected", good)
		}
	}
	for _, bad := range []string{"USA", "NASA", "Xq3"} {
		if isLikelyFormula(bad) {
			t.Errorf("%s accepted", bad)
		}
	}
}

func TestCompressedExtract(t *testing.T) {
	var buf bytes.Buffer
	w := zip.NewWriter(&buf)
	for _, name := range []string{"data/a.csv", "data/b.csv", "readme.txt"} {
		f, err := w.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("contents of " + name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c := NewCompressed()
	md, err := c.Extract(&family.Group{}, map[string][]byte{"/a.zip": buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	if md["entries"].(int) != 3 {
		t.Fatalf("entries = %v", md["entries"])
	}
	exts := md["extensions"].([]string)
	if len(exts) != 2 || exts[0] != "csv" || exts[1] != "txt" {
		t.Fatalf("extensions = %v", exts)
	}
	if md["uncompressed_bytes"].(uint64) == 0 {
		t.Fatal("uncompressed bytes = 0")
	}
}

func TestCompressedNotApplicable(t *testing.T) {
	c := NewCompressed()
	if _, err := c.Extract(&family.Group{}, map[string][]byte{
		"/x.zip": []byte("not a zip"),
	}); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppliesMatrix(t *testing.T) {
	// Each extractor must reject directories.
	l := DefaultLibrary()
	dir := store.FileInfo{Name: "d", IsDir: true}
	for _, name := range l.Names() {
		e, _ := l.Get(name)
		if e.Applies(dir) {
			t.Errorf("%s applies to a directory", name)
		}
	}
	// MIME-driven matches for Drive files without useful extensions.
	gdoc := store.FileInfo{Name: "untitled", MimeType: store.MimePDF}
	kw, _ := l.Get("keyword")
	if !kw.Applies(gdoc) {
		t.Error("keyword should accept PDF MIME type")
	}
}
