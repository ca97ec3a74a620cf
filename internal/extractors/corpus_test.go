package extractors_test

// Tests that need internal/dataset's content generators live here, in
// the external test package: dataset imports extractors, so the package's
// own tests cannot import it back.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"xtract/internal/dataset"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/store"
)

// heavyFiles is one draw of every content kind at the top of the heavy
// range bench/workloads.go's materializeMDF uses for extract-mdf.
func heavyFiles(seed int64) map[string][]byte {
	rng := rand.New(rand.NewSource(seed))
	return map[string][]byte{
		"INCAR":          dataset.INCARFile(rng),
		"POSCAR":         dataset.POSCARFile(rng, 600),
		"OUTCAR":         dataset.OUTCARFile(rng, 600),
		"run.yaml":       dataset.YAMLFile(rng),
		"structure.cif":  dataset.CIFFile(rng),
		"results.csv":    dataset.CSVFile(rng, 2000, 7),
		"notes.txt":      dataset.TextFile(rng, 8000),
		"micrograph.png": dataset.Image(rng, dataset.ImgPhoto, 96),
	}
}

// buildCorpus writes the fixed corpus the golden digests are taken over:
// the light MDF, CDIAC and COCO repositories, three heavy draws, and one
// file for every extractor those leave out.
func buildCorpus(t *testing.T) *store.MemFS {
	t.Helper()
	fs := store.NewMemFS("corpus", nil)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := dataset.MaterializeMDF(fs, "/mdf", 60, 3)
	must(err)
	_, err = dataset.MaterializeCDIAC(fs, "/cdiac", 60, 4)
	must(err)
	_, err = dataset.MaterializeCOCO(fs, "/coco", 4, 5)
	must(err)
	for seed := int64(1); seed <= 3; seed++ {
		for name, data := range heavyFiles(seed) {
			must(fs.Write(fmt.Sprintf("/heavy/s%d/%s", seed, name), data))
		}
	}
	rng := rand.New(rand.NewSource(6))
	tagged, err := extractors.InsertPNGText(dataset.Image(rng, dataset.ImgMap, 48), "location", "Lemont, Illinois; Europe")
	must(err)
	for name, data := range map[string][]byte{
		"/misc/a.py": dataset.PythonFile(rng), "/misc/b.c": dataset.CFile(rng), "/misc/c.zip": dataset.ZipFile(rng, 4),
		"/misc/plot.png": dataset.Image(rng, dataset.ImgPlot, 48), "/misc/diagram.png": dataset.Image(rng, dataset.ImgDiagram, 48),
		"/misc/map.png": tagged,
		"/misc/scan.h5": extractors.EncodeXHD(&extractors.XHDNode{
			Name: "/", IsGroup: true, Attrs: map[string]string{"experiment": "thesis-data"},
			Children: []*extractors.XHDNode{{Name: "scan", Dims: []uint64{64}, Payload: make([]byte, 512)}},
		}),
		"/misc/water.xyz":  []byte("3\nwater molecule\nO 0.000 0.000 0.117\nH 0.000 0.757 -0.467\nH 0.000 -0.757 -0.467\n"),
		"/misc/table.tsv":  []byte("site\tdepth\ttemp\nA\t1.5\t20.1\r\nB\t2.5\tNA\r\nC\t-999\t19.0\n"),
		"/misc/quoted.csv": []byte("name,value\n\"Smith, J\",1.5\n\"Doe, A\",2.5\nx,n/a\n"),
		"/misc/readme":     []byte("Café résumé naïve: the perovskite's band-gap was re-measured, 3x, by the group.\n"),
		"/misc/mixed.txt":  []byte("a,b,c\n1,2,3\n4,5,6\n7,8,9\nperovskite lattice lattice\n"),
		"/misc/relax.dft":  []byte("SCF cycle 1\nscf cycle 2\n! total energy = -93.45 Ry\nconvergence achieved\n"),
		// Where a kernel's fast path and its fallback part ways.
		"/misc/semi.csv":    []byte("id;depth;note\r\n1;2.5;ok\r\n\r\n2;;ragged;row\r\n   \r\n3;-9999;N/A\r\n4;1e400;+.5\r"),
		"/misc/unicode.csv": []byte("k,v,w\n\uff2e\uff41\uff4e,1,x\nm\u0130ssing,2,\u212a\n NA ,3,\u00a0nan\u00a0\n?,4,a-cell-longer-than-any-marker\n"),
		"/misc/nbsp/POSCAR": []byte("nbsp\u00a0cell\n1.0\n4.0\u00a00.0\u00a00.0\n0.0 4.0 0.0\n0.0\u00850.0\u00854.0\n \u00a0 \nSi\u00a0O\n1 1\nDirect\n0.0 0.0 0.0\n0.5\u00a00.5 0.5 T T T F F F\n"),
		"/misc/nbsp/OUTCAR": []byte("  free  energy   TOTEN  =\u00a0-10.5 eV\n E-fermi : 1.25 XC(G=0)\n TOTEN no number eV\n"),
	} {
		must(fs.Write(name, data))
	}
	for name, data := range extractors.EncodedImages(t) {
		must(fs.Write("/misc/img/"+name, data))
	}
	return fs
}

// walkCorpus visits every (extractor, group) pair of the corpus in a
// fixed order: each file alone under every extractor that applies to it,
// then each directory as one group the way the matio grouper packs it.
func walkCorpus(t testing.TB, fs *store.MemFS, lib *extractors.Library, visit func(name string, g *family.Group, files map[string][]byte)) {
	t.Helper()
	var walk func(dir string)
	walk = func(dir string) {
		infos, err := fs.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		whole := &family.Group{ID: dir}
		all := make(map[string][]byte)
		for _, info := range infos {
			if info.IsDir {
				walk(info.Path)
				continue
			}
			data, err := fs.Read(info.Path)
			if err != nil {
				t.Fatal(err)
			}
			whole.Files = append(whole.Files, info.Path)
			all[info.Path] = data
			for _, name := range lib.CandidatesFor(info) {
				visit(name, &family.Group{ID: info.Path, Files: []string{info.Path}}, map[string][]byte{info.Path: data})
			}
		}
		if len(all) > 0 {
			for _, name := range []string{"matio", "ase", "images", "imagesort"} {
				visit(name, whole, all)
			}
		}
	}
	walk("/")
}

// canonicalOutcome is what a step would carry for this call: the
// canonical metadata bytes, or the error.
func canonicalOutcome(t testing.TB, ext extractors.Extractor, g *family.Group, files map[string][]byte) []byte {
	t.Helper()
	md, err := ext.Extract(g, files)
	if err != nil {
		return []byte("error: " + err.Error())
	}
	enc, err := fastjson.AppendCanonical(nil, md)
	if err != nil {
		t.Fatalf("%s on %s: %v", ext.Name(), g.ID, err)
	}
	return enc
}

// TestKernelsMatchReferenceOverCorpus runs the rewritten kernels and the
// parent commit's (reference_test.go) side by side over the corpus, the
// three heavy draws included, and compares what a step would carry.
func TestKernelsMatchReferenceOverCorpus(t *testing.T) {
	fs := buildCorpus(t)
	lib, ref := extractors.DefaultLibrary(), extractors.ReferenceLibrary()
	compared := 0
	walkCorpus(t, fs, lib, func(name string, g *family.Group, files map[string][]byte) {
		kernel, _ := lib.Get(name)
		reference, _ := ref.Get(name)
		got, want := canonicalOutcome(t, kernel, g, files), canonicalOutcome(t, reference, g, files)
		if !bytes.Equal(got, want) {
			t.Errorf("%s on %s:\nkernel:    %.300s\nreference: %.300s", name, g.ID, got, want)
		}
		compared++
	})
	t.Logf("%d calls compared", compared)
	if compared < 500 {
		t.Fatalf("only %d calls compared; the corpus is too small to mean anything", compared)
	}
}

// parentDigests are the SHA-256 of each DefaultLibrary extractor's
// canonical output over buildCorpus, computed AT THE PARENT COMMIT of the
// kernel rewrite (4cf6f2d, PR 18) and pasted here. An extractor whose
// digest moves has changed bytes some cache entry or document already
// holds: that needs a Version() bump and a new literal, on purpose.
var parentDigests = map[string]string{
	"matio":          "97fd43c4919a386c54ade483ab1cd8be32701a3836a8337284bfc88c09f0c959",
	"ase":            "cdd7d87e7a97e5bfcc165a2644e0c8d8e5dcbe87b1e22a9a63c203399c6e742b",
	"tabular":        "d596630192fcf82167218622f90c08136071fc22774d3f2ccf46ed5d1ec198f5",
	"nullvalue":      "36d4fb1fadd5b7ae97febf29906a5077b46dd9cbd3ed2e0d5edcc2f366c80441",
	"imagesort":      "fa778a85479f574a7bf0e3ab215e2f535f466473c8523cb492a02b3cabd8a45a",
	"images":         "a60fbd490f3228d2200471eee9e4c85cde9434ca8efcb612753d135ad22887c9",
	"hierarchical":   "0b5b4d1eaeb5330288ec70b5284a21b5b1d8db45dae6a13c78df3ad78afcce20",
	"semistructured": "d367a622b08720970eed831cf0be2473573eecff57e366d01197b1bf32d51071",
	"pycode":         "67e1c92f32b37239caa62d227062d88bb9fec3dd74cacd5dc389d7a136cf3cb6",
	"ccode":          "91d9281dc4824cf3282c8865da2d7506f29e3b7d15494ba34236d9dc515323c1",
	"compressed":     "50392098636fb92b93bf0ae904d66fbe54a0fc42842c4b23a8db5b65c7a4a712",
	"keyword":        "d1874ebab0baf15390c58b5a65369ed5ea738a6c6621c3e10f6acd37cc11f00c",
	"entity":         "6f206376374e9dc8b172ad8ad5d38e837c9477881a06152fb77d65d8afa24691",
}

func TestExtractorOutputGolden(t *testing.T) {
	fs := buildCorpus(t)
	lib := extractors.DefaultLibrary()
	sums := make(map[string]hash.Hash)
	calls := make(map[string]int)
	walkCorpus(t, fs, lib, func(name string, g *family.Group, files map[string][]byte) {
		ext, err := lib.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		h := sums[name]
		if h == nil {
			h = sha256.New()
			sums[name] = h
		}
		out := canonicalOutcome(t, ext, g, files)
		if !bytes.HasPrefix(out, []byte("error: ")) {
			calls[name]++
		}
		fmt.Fprintf(h, "%s\x00%s\n", g.ID, out)
	})
	for _, name := range lib.Names() {
		if calls[name] == 0 {
			t.Errorf("%s produced no metadata over the corpus", name)
			continue
		}
		got := hex.EncodeToString(sums[name].Sum(nil))
		if want := parentDigests[name]; got != want {
			t.Errorf("%s: digest %s, parent commit's %s", name, got, want)
		}
	}
}

// Heavy-size benchmarks: one extract-mdf step per iteration, over the
// files that step would read. (bench_test.go holds the light ones.)

func benchHeavy(b *testing.B, ext extractors.Extractor, names ...string) {
	b.Helper()
	all := heavyFiles(1)
	g := &family.Group{ID: "heavy"}
	files := make(map[string][]byte)
	size := 0
	for _, n := range names {
		g.Files = append(g.Files, "/calc/"+n)
		files["/calc/"+n] = all[n]
		size += len(all[n])
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ext.Extract(g, files); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeavyTabular(b *testing.B)   { benchHeavy(b, extractors.NewTabular(), "results.csv") }
func BenchmarkHeavyNullValue(b *testing.B) { benchHeavy(b, extractors.NewNullValue(), "results.csv") }
func BenchmarkHeavyKeyword(b *testing.B)   { benchHeavy(b, extractors.NewKeyword(15), "notes.txt") }
func BenchmarkHeavyMatIO(b *testing.B) {
	benchHeavy(b, extractors.NewMatIO(), "INCAR", "POSCAR", "OUTCAR", "run.yaml")
}
func BenchmarkHeavyASE(b *testing.B) { benchHeavy(b, extractors.NewASE(), "POSCAR") }
func BenchmarkHeavyImageSort(b *testing.B) {
	benchHeavy(b, extractors.NewImageSort(), "micrograph.png")
}
func BenchmarkHeavyImages(b *testing.B) { benchHeavy(b, extractors.NewImages(), "micrograph.png") }
func BenchmarkHeavySemiStructured(b *testing.B) {
	benchHeavy(b, extractors.NewSemiStructured(), "run.yaml")
}

// extractAllocs is the allocation count of one Extract call over one file.
func extractAllocs(t *testing.T, ext extractors.Extractor, path string, data []byte) float64 {
	t.Helper()
	g := &family.Group{ID: "g", Files: []string{path}}
	files := map[string][]byte{path: data}
	return testing.AllocsPerRun(20, func() {
		if _, err := ext.Extract(g, files); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTabularCostDoesNotGrowWithTheTable: four times the rows may cost a
// handful of allocations more (the distinct-set's tables, the buffers'
// size classes), never one per row or per cell; a column costs its
// ColumnStats and nothing per row.
func TestTabularCostDoesNotGrowWithTheTable(t *testing.T) {
	csv := func(rows, cols int) []byte { return dataset.CSVFile(rand.New(rand.NewSource(9)), rows, cols) }
	for _, ext := range []extractors.Extractor{extractors.NewTabular(), extractors.NewNullValue()} {
		small, large := extractAllocs(t, ext, "/d.csv", csv(500, 7)), extractAllocs(t, ext, "/d.csv", csv(2000, 7))
		narrow := extractAllocs(t, ext, "/d.csv", csv(2000, 3))
		t.Logf("%s: 500x7 %v, 2000x7 %v, 2000x3 %v allocations", ext.Name(), small, large, narrow)
		if large-small > 8 {
			t.Errorf("%s: 2000 rows cost %v allocations, 500 rows %v: the difference must not scale with rows", ext.Name(), large, small)
		}
		if large-narrow > 4*4 {
			t.Errorf("%s: 7 columns cost %v allocations, 3 columns %v: more than a few per column", ext.Name(), large, narrow)
		}
	}
}

// TestKeywordCostFollowsDistinctTokens: the same vocabulary eight times
// over allocates what it did once, apart from the copy of the text.
func TestKeywordCostFollowsDistinctTokens(t *testing.T) {
	text := func(words int) []byte { return dataset.TextFile(rand.New(rand.NewSource(9)), words) }
	k := extractors.NewKeyword(15)
	short, long := extractAllocs(t, k, "/n.txt", text(1000)), extractAllocs(t, k, "/n.txt", text(8000))
	t.Logf("keyword: 1000 words %v, 8000 words %v allocations", short, long)
	if long-short > 8 {
		t.Errorf("8000 words cost %v allocations, 1000 words %v: tokens must not allocate, only distinct ones", long, short)
	}
}
