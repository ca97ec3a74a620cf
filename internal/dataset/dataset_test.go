package dataset

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/store"
)

func TestTextFileTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	text := string(TextFile(rng, 100))
	if len(strings.Fields(text)) < 90 {
		t.Fatalf("text too short: %d words", len(strings.Fields(text)))
	}
}

func TestGeneratedContentParses(t *testing.T) {
	// Every generator must produce content its matching extractor can
	// actually parse — the datasets are real bytes, not placeholders.
	rng := rand.New(rand.NewSource(7))
	g := &family.Group{ID: "g"}
	cases := []struct {
		name      string
		extractor extractors.Extractor
		path      string
		data      []byte
	}{
		{"text", extractors.NewKeyword(5), "/t.txt", TextFile(rng, 50)},
		{"csv", extractors.NewTabular(), "/d.csv", CSVFile(rng, 20, 4)},
		{"poscar", extractors.NewMatIO(), "/POSCAR", POSCARFile(rng, 8)},
		{"incar", extractors.NewMatIO(), "/INCAR", INCARFile(rng)},
		{"outcar", extractors.NewMatIO(), "/OUTCAR", OUTCARFile(rng, 3)},
		{"cif", extractors.NewMatIO(), "/c.cif", CIFFile(rng)},
		{"json", extractors.NewSemiStructured(), "/m.json", JSONFile(rng)},
		{"yaml", extractors.NewSemiStructured(), "/m.yaml", YAMLFile(rng)},
		{"xml", extractors.NewSemiStructured(), "/m.xml", XMLFile(rng)},
		{"python", extractors.NewPythonCode(), "/a.py", PythonFile(rng)},
		{"c", extractors.NewCCode(), "/a.c", CFile(rng)},
		{"zip", extractors.NewCompressed(), "/a.zip", ZipFile(rng, 3)},
	}
	for _, c := range cases {
		md, err := c.extractor.Extract(g, map[string][]byte{c.path: c.data})
		if err != nil {
			t.Errorf("%s: extractor %s failed: %v", c.name, c.extractor.Name(), err)
			continue
		}
		if len(md) == 0 {
			t.Errorf("%s: empty metadata", c.name)
		}
	}
}

func TestGeneratedImagesClassifyCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	is := extractors.NewImageSort()
	want := map[ImageClass]string{
		ImgPhoto:   "photograph",
		ImgPlot:    "plot",
		ImgDiagram: "diagram",
		ImgMap:     "geographic map",
	}
	for class, wantName := range want {
		correct, total := 0, 10
		for i := 0; i < total; i++ {
			img := Image(rng, class, 32)
			md, err := is.Extract(&family.Group{}, map[string][]byte{"/i.png": img})
			if err != nil {
				t.Fatalf("class %d: %v", class, err)
			}
			if md["classes"].(map[string]string)["/i.png"] == wantName {
				correct++
			}
		}
		// The classifier is a stand-in, not perfect; require a strong
		// majority for each generated class.
		if correct < 7 {
			t.Errorf("class %s: only %d/%d classified correctly", wantName, correct, total)
		}
	}
}

func TestMaterializeMDF(t *testing.T) {
	fs := store.NewMemFS("mdf", nil)
	files, err := MaterializeMDF(fs, "/mdf", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, got := fs.TotalBytes()
	if got != files || files < 50 {
		t.Fatalf("files = %d, store has %d", files, got)
	}
}

func TestMaterializeCDIAC(t *testing.T) {
	fs := store.NewMemFS("cdiac", nil)
	files, err := MaterializeCDIAC(fs, "/cdiac", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if files != 100 {
		t.Fatalf("files = %d", files)
	}
}

func TestMaterializeGDriveMix(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	d := store.NewDriveStore("gdrive", clk, 0, 0)
	counts := PaperGDriveCounts().Scale(100)
	files, err := MaterializeGDrive(d, counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if files != counts.Total() {
		t.Fatalf("files = %d, want %d", files, counts.Total())
	}
}

func TestPaperGDriveCountsTotal(t *testing.T) {
	if got := PaperGDriveCounts().Total(); got != 4443 {
		t.Fatalf("total = %d, want 4443", got)
	}
}

func TestGDriveScaleKeepsRareTypes(t *testing.T) {
	s := PaperGDriveCounts().Scale(50)
	if s.Hierarchical < 1 || s.Compressed < 1 {
		t.Fatalf("scaled counts lost rare types: %+v", s)
	}
	if s.Total() > 80 {
		t.Fatalf("scale overshoot: %d", s.Total())
	}
}

func TestMaterializeCOCO(t *testing.T) {
	fs := store.NewMemFS("coco", nil)
	n, err := MaterializeCOCO(fs, "/coco", 20, 1)
	if err != nil || n != 20 {
		t.Fatalf("n = %d, %v", n, err)
	}
}

func TestTable1StatsShape(t *testing.T) {
	// Scaled-down draws must land near the paper's Table 1 totals.
	mdf := Table1Stats("mdf", 0.01, 42)
	if mdf.Files != 19968947 {
		t.Fatalf("mdf files = %d", mdf.Files)
	}
	if mdf.SizeTB < 30 || mdf.SizeTB > 120 {
		t.Fatalf("mdf size = %.1f TB, want ~61", mdf.SizeTB)
	}
	cdiac := Table1Stats("cdiac", 1, 42)
	if cdiac.SizeTB < 0.15 || cdiac.SizeTB > 0.7 {
		t.Fatalf("cdiac size = %.2f TB, want ~0.33", cdiac.SizeTB)
	}
	if cdiac.UniqueExtensions < 100 || cdiac.UniqueExtensions > 250 {
		t.Fatalf("cdiac exts = %d, want ~152", cdiac.UniqueExtensions)
	}
	ind := Table1Stats("individual", 1, 42)
	if ind.UniqueExtensions < 50 || ind.UniqueExtensions > 100 {
		t.Fatalf("individual exts = %d, want ~71", ind.UniqueExtensions)
	}
	if unknown := Table1Stats("nope", 1, 1); unknown.Files != 0 {
		t.Fatalf("unknown repo stats = %+v", unknown)
	}
}

func TestMDFGroupSpecsMix(t *testing.T) {
	byExt := make(map[string]int)
	var totalDur time.Duration
	const n = 50000
	MDFGroupSpecs(n, 42, func(g GroupSpec) {
		byExt[g.Extractor]++
		totalDur += g.Duration
		if g.Files < 1 || g.Bytes <= 0 || g.Duration <= 0 {
			t.Fatalf("bad spec: %+v", g)
		}
	})
	if byExt["ase"] < n/100 || byExt["ase"] > n/25 {
		t.Fatalf("ase share = %d", byExt["ase"])
	}
	// Average core-seconds per group near the 26,200 core-hours / 2.5M
	// groups ≈ 37.7 s the paper implies.
	avg := totalDur / n
	if avg < 15*time.Second || avg > 90*time.Second {
		t.Fatalf("avg group duration = %v, want ~38s", avg)
	}
}

func TestInvocationSpecsSane(t *testing.T) {
	for _, specs := range [][]int{{1000}, {1}} {
		n := specs[0]
		for _, s := range ImageSortSpecs(n, 1) {
			if s.Duration <= 0 || s.Bytes <= 0 || s.Files != 1 {
				t.Fatalf("imagesort spec %+v", s)
			}
		}
		for _, s := range MatIOSpecs(n, 1) {
			if s.Duration <= 0 || s.Files < 3 {
				t.Fatalf("matio spec %+v", s)
			}
		}
		for _, s := range MidwayFileSpecs(n, 1) {
			if s.Duration <= 0 {
				t.Fatalf("midway spec %+v", s)
			}
		}
	}
}

func TestImageSortDurationCenter(t *testing.T) {
	// Calibrated so ImageSort (short) ≈ 1/3 of MatIO (long): peak
	// throughputs 357.5/s vs 249.3/s and Figure 2 knees at 2048 vs 4096.
	var isTotal, mioTotal time.Duration
	isSpecs := ImageSortSpecs(20000, 9)
	for _, s := range isSpecs {
		isTotal += s.Duration
	}
	mioSpecs := MatIOSpecs(20000, 9)
	for _, s := range mioSpecs {
		mioTotal += s.Duration
	}
	isAvg := isTotal / time.Duration(len(isSpecs))
	mioAvg := mioTotal / time.Duration(len(mioSpecs))
	if isAvg < 4*time.Second || isAvg > 8*time.Second {
		t.Fatalf("imagesort avg = %v, want ~5.7s", isAvg)
	}
	if mioAvg < 12*time.Second || mioAvg > 22*time.Second {
		t.Fatalf("matio avg = %v, want ~16.6s", mioAvg)
	}
	if mioAvg < 2*isAvg {
		t.Fatalf("matio (%v) should be much longer than imagesort (%v)", mioAvg, isAvg)
	}
}

func TestGDriveInvocationsTable3(t *testing.T) {
	invs := GDriveInvocations(5)
	if len(invs) != 4980 {
		t.Fatalf("invocations = %d, want 4980", len(invs))
	}
	byExt := make(map[string]int)
	durSum := make(map[string]time.Duration)
	for _, inv := range invs {
		byExt[inv.Extractor]++
		durSum[inv.Extractor] += inv.Duration
	}
	if byExt["keyword"] != 3539 || byExt["tabular"] != 333 || byExt["images"] != 774 {
		t.Fatalf("counts = %v", byExt)
	}
	avgKeyword := durSum["keyword"] / time.Duration(byExt["keyword"])
	if avgKeyword < 1500*time.Millisecond || avgKeyword > 4200*time.Millisecond {
		t.Fatalf("keyword avg = %v, want ~2.76s", avgKeyword)
	}
}

// TestExtractorOutputEncodesCanonically runs every extractor of the
// default library over the content generators and holds the worker's
// one encoding of each real result to its definition: the bytes the old
// encode → decode → encode chain ended up writing into a document. The
// typed values extractors return (structs in field order, []int,
// map[string]float64, nested typed maps) are where the two could part.
func TestExtractorOutputEncodesCanonically(t *testing.T) {
	fs := store.NewMemFS("repo", nil)
	if _, err := MaterializeMDF(fs, "/mdf", 120, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := MaterializeCDIAC(fs, "/cdiac", 80, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := MaterializeCOCO(fs, "/coco", 6, 5); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for name, data := range map[string][]byte{
		"/misc/a.py": PythonFile(rng), "/misc/b.c": CFile(rng), "/misc/c.zip": ZipFile(rng, 4),
		"/misc/plot.png": Image(rng, ImgPlot, 48), "/misc/map.png": Image(rng, ImgMap, 48),
		"/misc/scan.h5": extractors.EncodeXHD(&extractors.XHDNode{
			Name: "/", IsGroup: true, Attrs: map[string]string{"experiment": "thesis-data"},
			Children: []*extractors.XHDNode{{Name: "scan", Dims: []uint64{64}, Payload: make([]byte, 512)}},
		}),
	} {
		if err := fs.Write(name, data); err != nil {
			t.Fatal(err)
		}
	}
	lib := extractors.DefaultLibrary()
	ran := make(map[string]int)
	check := func(ext extractors.Extractor, g *family.Group, files map[string][]byte) {
		md, err := ext.Extract(g, files)
		if err != nil || len(md) == 0 {
			return
		}
		ran[ext.Name()]++
		enc, err := fastjson.AppendValue(nil, md)
		if err != nil {
			t.Fatalf("%s on %v: %v", ext.Name(), g.Files, err)
		}
		generic, err := fastjson.DecodeValue(enc)
		if err != nil {
			t.Fatalf("%s on %v: %v", ext.Name(), g.Files, err)
		}
		want, _ := fastjson.AppendValue(nil, generic)
		got, err := fastjson.AppendCanonical(nil, md)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s on %v (%v):\ncanonical:  %s\nround trip: %s", ext.Name(), g.Files, err, got, want)
		}
	}
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
				ext, _ := lib.Get(name)
				check(ext, &family.Group{ID: info.Path, Files: []string{info.Path}}, map[string][]byte{info.Path: data})
			}
		}
		// The directory as one group, the way the matio grouper packs it.
		for _, name := range []string{"matio", "ase", "images", "imagesort"} {
			if ext, err := lib.Get(name); err == nil && len(all) > 0 {
				check(ext, whole, all)
			}
		}
	}
	walk("/")
	for _, name := range lib.Names() {
		if ran[name] == 0 {
			t.Errorf("extractor %s produced no metadata over the generated corpus", name)
		}
	}
}
