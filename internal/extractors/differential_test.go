package extractors

// The byte-identity contract, checked input by input: every kernel
// against its reference in reference_test.go, on both sides of each
// content-decided choice (a quote character, a byte >= 0x80, the decoded
// image's concrete type).

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/gif"
	"image/jpeg"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"xtract/internal/family"
	"xtract/internal/fastjson"
)

type extractFunc func(g *family.Group, files map[string][]byte) (map[string]interface{}, error)

// outcome renders an Extract result as a step would carry it.
func outcome(extract extractFunc, path string, data []byte) string {
	md, err := extract(&family.Group{ID: "g", Files: []string{path}}, map[string][]byte{path: data})
	if err != nil {
		return "error: " + err.Error()
	}
	enc, err := fastjson.AppendCanonical(nil, md)
	if err != nil {
		// Inf or NaN out of a column of "Inf" cells: the step fails at
		// its encode, on both sides, over the same values. The kernel's
		// record says so in fastjson's words, the reference's typed
		// slice in encoding/json's, so only the values are compared.
		return fmt.Sprintf("unencodable: %v", md)
	}
	return string(enc)
}

func sameOutcome(t testing.TB, name string, got, ref extractFunc, path string, data []byte) {
	t.Helper()
	if g, r := outcome(got, path, data), outcome(ref, path, data); g != r {
		t.Errorf("%s on %q:\nkernel:    %s\nreference: %s", name, data, g, r)
	}
}

func checkTabular(t testing.TB, data []byte) {
	t.Helper()
	sameOutcome(t, "tabular", NewTabular().Extract, refTabularExtract, "/d.csv", data)
	sameOutcome(t, "nullvalue", NewNullValue().Extract, refNullValueExtract, "/d.csv", data)
}

func checkKeyword(t testing.TB, data []byte) {
	t.Helper()
	k := NewKeyword(7)
	sameOutcome(t, "keyword", k.Extract, func(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
		return refKeywordExtract(k, g, files)
	}, "/notes.txt", data)
}

// checkSplit holds splitRecords to csv.Reader on text the table parser
// would hand it (no quote character).
func checkSplit(t testing.TB, text string, delim byte) {
	t.Helper()
	want, err := refSplit(text, rune(delim))
	if err != nil {
		t.Fatalf("csv rejected quote-free %q: %v", text, err)
	}
	got := splitRecords(text, delim)
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		t.Errorf("splitRecords(%q, %q):\n got %q\nwant %q", text, delim, got, want)
	}
}

// checkMaterials runs every materials and line-oriented parser over the
// same bytes. A parser's unexported fields (coordinates) are compared as
// values, so nil and empty slices are the same thing.
func checkMaterials(t testing.TB, data []byte) {
	t.Helper()
	same := func(name string, got, ref interface{}) {
		t.Helper()
		if g, r := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", ref); g != r {
			t.Errorf("%s on %q:\nkernel:    %s\nreference: %s", name, data, g, r)
		}
	}
	gs, gok := parsePOSCAR(data)
	rs, rok := refParsePOSCAR(data)
	same("parsePOSCAR", []interface{}{gs, gok}, []interface{}{rs, rok})
	gx, gok := parseXYZ(data)
	rx, rok := refParseXYZ(data)
	same("parseXYZ", []interface{}{gx, gok}, []interface{}{rx, rok})
	gc, gok := parseCIF(data)
	rc, rok := refParseCIF(data)
	same("parseCIF", []interface{}{gc, gok}, []interface{}{rc, rok})
	same("parseINCAR", parseINCAR(data), refParseINCAR(data))
	gd, gok := parseDFTLog(data)
	rd, rok := refParseDFTLog(data)
	same("parseDFTLog", []interface{}{gd, gok}, []interface{}{rd, rok})
	same("extractYAMLish", NewSemiStructured().extractYAMLish(string(data)), refExtractYAMLish(string(data)))
	for ln, rest, ok := nextLine(string(data)); ok; ln, rest, ok = nextLine(rest) {
		same("appendFields", appendFields(nil, ln), strings.Fields(ln))
	}
	// The reference panics on an E-fermi line without a colon (the bug
	// this rewrite fixed); the kernel must get through it, and agree
	// wherever the reference has an answer.
	gout, gok := parseOUTCAR(data)
	func() {
		defer func() { _ = recover() }()
		ro, rok := refParseOUTCAR(data)
		same("parseOUTCAR", []interface{}{gout, gok}, []interface{}{ro, rok})
	}()
}

var tabularCases = []string{
	"", "\n", "a,b", "a,b\n", "h1,h2,h3\n",
	"x,y\n1,2\n3,4\n", "x,y\r\n1,2\r\n3,4\r\n", "x,y\n1,2\n3,4\r", "x,y\n1,2\r\r\n3,4\r\r",
	"x,y\n\n1,2\n   \n\t\n3,4\n\r\n", " \n \n", "\r", "\r\n\r\n",
	"x,y\n1,2,3\n4,5\n6\n7,8\n", "1,2,3\nx,y\n4,5,6\n",
	"a;b;c\n1;2;3\n4;5;6\n", "a\tb\n1\t2\n3\t4\n", "a,b;c\n1,2;3\n", "a;b\n1,5;2,5\n3,5;4,5\n",
	"name,value\n\"Smith, J\",1\n\"Doe\",2\n", "a,b\n1,\"un\nclosed\n", "a,b\n1,2\"\n3,4\n", "\"", "a\"b,c\n",
	"k,v\n NA ,1\n-999,2\nN/A,3\nnUlL,4\nNone,5\n?,6\n-9999,7\nMISSING,8\n,9\n",
	"k,v\n\uff2e\uff41\uff4e,1\nm\u0130ssing,2\n\u212a,3\n\u00a0NA\u00a0,4\n\u0085?\u0085,5\nna\u00e9,6\n",
	"k,v\nmissing-value,1\nnot-a-marker-at-all,2\nmissingg,3\n-99999,4\n",
	"k,v\n-,1\n-9,2\n-99,3\n-9.5,4\n-x,5\n+,6\n.,7\n-999 ,8\n+999,9\n-\u0130,10\n.nan,11\n-999.0,12\n-0999,13\nnAn,14\n-9999.00,15\n-NaN,16\n",
	"k,v\n1e400,+.5\n-1e400,.5e1\n0x1p-2,1_000\nInf,NaN\ninfinity,-inf\n",
	"a,b\n1,2\n" + strings.Repeat("3,4\n", 40), "a,b,c\n" + strings.Repeat("x,1.5, 2.5 \n", 12),
	"a,b\n1,2\x00\n\xff,\xfe\n", "\xef\xbb\xbfa,b\n1,2\n",
}

func TestTabularMatchesReference(t *testing.T) {
	for _, c := range tabularCases {
		checkTabular(t, []byte(c))
		if !strings.Contains(c, `"`) {
			for _, d := range []byte{',', '\t', ';'} {
				checkSplit(t, c, d)
			}
		}
	}
}

var keywordCases = []string{
	"", "   \n", "Perovskite solar cells; the PEROVSKITE structure. perovskite!",
	"don't re-enter x2y co2 a1b2c3 naïve", "it's isn't o'clock rock'n'roll", "h2o2 abc123def 9lives",
	"Café résumé NAÏVE Ünïcode ǅ İstanbul ΣΊΣΥΦΟΣ ſtraße", "K\u212aelvin \u212b \uff21\uff22\uff23 abc",
	"bad \xff utf8 \xc3 word\xe9s", "a,b,c\n1,2,3\n4,5,6\n7,8,9\n", "a\tb\n1\t2\n3\t4\n", "one,two\nthree\nfour\n",
	"the and with because through simulation simulation", "ab abc abcd ABCD AbCd", "x\ny\nz", "tab\tseparated\twords\tonly\n",
	strings.Repeat("lattice energy convergence. ", 200),
}

func TestKeywordMatchesReference(t *testing.T) {
	for _, c := range keywordCases {
		checkKeyword(t, []byte(c))
	}
}

// TestKeywordTiesMatchReference: the top-N list is cut inside runs of
// tied scores, so which tied words make it is decided by the word order
// alone, against refKeywordExtract's sort.Slice. Ties come from equal
// counts and lengths, and from a count and a length that price the same
// (one 30-letter word scores as two 10-letter words do).
func TestKeywordTiesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := []string{"alphaa", "bravoo", "charly", "deltaa", "echooo", "foxtro", "golfff",
		"hotell", "indiaa", "juliet", "kiloo", "limaa", "tenletters", "tenletterz",
		strings.Repeat("q", 30), strings.Repeat("p", 30)}
	for trial := 0; trial < 50; trial++ {
		var toks []string
		for _, w := range words {
			n := 2
			if len(w) == 30 {
				n = 1
			}
			for i := 0; i < n+trial%2; i++ {
				toks = append(toks, w)
			}
		}
		rng.Shuffle(len(toks), func(i, j int) { toks[i], toks[j] = toks[j], toks[i] })
		data := []byte(strings.Join(toks, " "))
		for _, topN := range []int{1, 3, 7, 12, len(words)} {
			k := NewKeyword(topN)
			sameOutcome(t, "keyword", k.Extract, func(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
				return refKeywordExtract(k, g, files)
			}, "/notes.txt", data)
		}
	}
}

var materialsCases = []string{
	"", "\n", testPOSCAR, testOUTCAR, testCIF, testXYZ, testINCAR,
	"c\n1.0\n4 0 0\n0 4 0\n0 0 4\nSi O\n1 1\nDirect\n0 0 0\n0.5 0.5 0.5 T T T\n",
	"c\n1.0\n4 0 0\n0 4 0\n0 0 4\nSi\n2\n",
	"c\n1.0\n4 0 0\n0 4 0\n0 0 4\nSi\n99999999999\nDirect\n0 0 0\n",
	"c\r\n1.0\r\n4 0 0\r\n0 4 0\r\n0 0 4\r\nSi\r\n2\r\nDirect\r\n0 0 0\r\nbad line\r\n0.5 0.5 0.5\r\n",
	"nbsp\u00a0cell\n1.0\n4.0\u00a00.0\u00a00.0\n0.0 4.0 0.0\n0.0\u00850.0\u00854.0\n \u00a0 \nSi\u00a0O\n1 1\nDirect\n0.0 0.0 0.0\n0.5\u20030.5 0.5\n",
	"c\n 1e400 \n4 0 0\n0 4 0\n0 0 4\nSi\n1\nD\n+.5 1e400 -0\n",
	"c\n1\n1 2\n", "c\nx\n", "\xff\n1\n1 0 0\n0 1 0\n0 0 1\n\xfe\n1\nD\n0 0 \xff\n0 0 0\n",
	"  free  energy   TOTEN  =  -10.5 eV\n  E-fermi :  1.25  XC(G=0)\n reached required accuracy\n",
	" E-fermi   1.234 XC(G=0)\n", " E-fermi :\n E-fermi : x\n TOTEN = eV\n TOTEN 3 4 eV 5\n TOTEN = 1 2 3 4 5 6 7 8 9 10 eV\n",
	" TOTEN\u00a0=\u00a0-3.5\u00a0eV\n E-fermi :\u00a02.5\n",
	"3\nwater\nO 0 0 0.1\nH 0 0.7 -0.4\nH 0 -0.7 -0.4\n", "3\n", "3", "x\ny\n", "2\nc\nO 0 0\nH a b c\nH\u00a01\u00a02\u00a03\nC 1 2 3 4 5 6 7 8 9\n",
	"_cell_length_a 5.43\n_chemical_formula_sum 'Si2 O4'\n_symmetry \"P 1\"\n_nospace\n _indented  7 \n_cell_angle_beta\t90\n",
	"ENCUT = 520\n# comment\n! other\n = 3\nkey=\nismear = 0 ! trailing\nSYSTEM = a = b\n",
	"title: run 7\n# c\nsamples: 12\nok: true\nempty:\nbad key: 1\n: v\nrate: 1e3\r\nnote: x\r",
	"SCF cycle 1\nscf CYCLE 2\n! Total Energy = -93.45 Ry\n! total energy = x Ry 7\r\nConvergence Achieved\n",
	"  scf\u00a0cycle 1\n \u212a total energy = -1.5 Ry\nconvergence ach\u0130eved\ns\u017fcf cycle\nTOTAL ENERGY\n",
}

func TestMaterialsMatchReference(t *testing.T) {
	for _, c := range materialsCases {
		checkMaterials(t, []byte(c))
	}
}

// TestOUTCARFermiLineWithoutColon is the malformed line that used to
// panic the parser, and through it a whole FaaS task.
func TestOUTCARFermiLineWithoutColon(t *testing.T) {
	r, ok := parseOUTCAR([]byte(" E-fermi   1.234 XC(G=0)\n  free  energy   TOTEN  =  -7.25 eV\n"))
	if !ok || r.EFermi != 0 || r.FinalEnergyEV != -7.25 || r.IonicSteps != 1 {
		t.Fatalf("parseOUTCAR = %+v, %v; want the colon-less line ignored and the energy kept", r, ok)
	}
	if _, ok := parseOUTCAR([]byte(" E-fermi   1.234 XC(G=0)\n")); ok {
		t.Fatal("a file holding only the malformed line parsed")
	}
}

// EncodedImages is one picture in every concrete type the registered
// decoders return, plus one wide enough for the sampling stride: *image.RGBA
// is the kernel's fast path, each other type takes At(). Exported for
// corpus_test.go's golden corpus.
func EncodedImages(t *testing.T) map[string][]byte {
	t.Helper()
	fill := func(img interface {
		image.Image
		Set(x, y int, c color.Color)
	}) image.Image {
		b := img.Bounds()
		for y := b.Min.Y; y < b.Max.Y; y++ {
			for x := b.Min.X; x < b.Max.X; x++ {
				img.Set(x, y, color.NRGBA{R: uint8(x * 7), G: uint8(y * 5), B: uint8(x ^ y), A: uint8(255 - x%64)})
			}
		}
		return img
	}
	pal := color.Palette{color.White, color.Black, color.RGBA{R: 200, A: 255}, color.RGBA{G: 150, B: 90, A: 255}}
	out := make(map[string][]byte)
	for name, img := range map[string]image.Image{
		"rgba":      fill(image.NewRGBA(image.Rect(0, 0, 40, 30))),
		"rgba-wide": fill(image.NewRGBA(image.Rect(0, 0, 300, 150))),
		"nrgba":     fill(image.NewNRGBA(image.Rect(0, 0, 40, 30))),
		"gray":      fill(image.NewGray(image.Rect(0, 0, 40, 30))),
		"gray16":    fill(image.NewGray16(image.Rect(0, 0, 40, 30))),
		"rgba64":    fill(image.NewRGBA64(image.Rect(0, 0, 40, 30))),
		"paletted":  fill(image.NewPaletted(image.Rect(0, 0, 40, 30), pal)),
	} {
		out[name+".png"] = encodePNG(t, img)
	}
	// An opaque RGBA source: the PNG drops the alpha channel and decodes
	// to *image.RGBA, the fast path.
	opaque := image.NewRGBA(image.Rect(0, 0, 40, 30))
	for i := range opaque.Pix {
		opaque.Pix[i] = uint8(i*31) | uint8(i%4/3*255)
	}
	out["opaque.png"] = encodePNG(t, opaque)
	var g, j bytes.Buffer
	if err := gif.Encode(&g, fill(image.NewPaletted(image.Rect(0, 0, 40, 30), pal)), nil); err != nil {
		t.Fatal(err)
	}
	if err := jpeg.Encode(&j, opaque, nil); err != nil {
		t.Fatal(err)
	}
	out["anim.gif"], out["photo.jpg"] = g.Bytes(), j.Bytes()
	out["photo.png"], out["plot.png"], out["map.png"] = makePhoto(t), makePlot(t), makeMap(t)
	return out
}

func TestImageFeaturesMatchReference(t *testing.T) {
	fast := 0
	for name, data := range EncodedImages(t) {
		got, gerr := computeFeatures(data)
		want, werr := refComputeFeatures(data)
		if got != want || (gerr == nil) != (werr == nil) {
			t.Errorf("%s: computeFeatures = %+v, %v; reference %+v, %v", name, got, gerr, want, werr)
		}
		if img, _, err := image.Decode(bytes.NewReader(data)); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if _, ok := img.(*image.RGBA); ok {
			fast++
		}
		sameOutcome(t, "imagesort", NewImageSort().Extract, refImageSortExtract, "/"+name, data)
		sameOutcome(t, "images", NewImages().Extract, refImagesExtract, "/"+name, data)
	}
	if fast < 3 || fast == len(EncodedImages(t)) {
		t.Fatalf("%d of the pictures decode to *image.RGBA: both sides of the choice must be covered", fast)
	}
	if _, err := computeFeatures([]byte("not an image")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func FuzzSplitMatchesCSV(f *testing.F) {
	for _, c := range tabularCases {
		f.Add(c, uint8(0))
		f.Add(c, uint8(2))
	}
	f.Fuzz(func(t *testing.T, text string, d uint8) {
		if strings.Contains(text, `"`) {
			t.Skip("the table parser keeps encoding/csv for quoted text")
		}
		checkSplit(t, text, []byte{',', '\t', ';'}[d%3])
	})
}

func FuzzTabularMatchesReference(f *testing.F) {
	for _, c := range tabularCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkTabular(t, data) })
}

func FuzzKeywordMatchesReference(f *testing.F) {
	for _, c := range keywordCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkKeyword(t, data) })
}

func FuzzPOSCARMatchesReference(f *testing.F) {
	for _, c := range materialsCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkMaterials(t, data) })
}

// parseFloatCases are the number shapes the generators write (POSCAR
// coordinates, lattice lengths, OUTCAR energies, table cells and their
// headers and nulls) and every shape that leaves the exact path.
var parseFloatCases = []string{
	"0.123456", "0.999999", "5.4310", "-10.5000", "12.345", "-3.142", "-0.052", "1.0", "0.0", "0", "42", "NA", "field_0",
	"1e5", "1E-5", "2.5e+3", "1e400", ".5", "5.", "-0", "-0.000", "+.5", "+5", "inf", "-Inf", "+infinity", "NaN", "nan",
	"+nan", "-n", "i", "nA", "NaNa", "INFINITY", "-infinitY", "+INF", "infinitx", "info", "nab", "-nan",
	"0x1p3", "0X1.8P1", "1_0", "0x_1p0", "_1", "1234567890123456", "123456789012345",
	"9007199254740993", "-123456789012345.6", "0.12345678901234567890123", "0.1234567890123456789012",
	"0.0000000000000000000001", "1.0000000000000000000000", "000000000000000000001.5", "1..2", "1.2.3",
	"+", "-", ".", "-.", "+-1", "", " 1.5", "1.5 ", "\t2", "1,5", "\u00a01", "\xff",
}

func FuzzParseFloatMatchesStrconv(f *testing.F) {
	for _, c := range parseFloatCases {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gerr := parseFloat(s)
		want, werr := strconv.ParseFloat(s, 64)
		if math.Float64bits(got) != math.Float64bits(want) || (gerr == nil) != (werr == nil) {
			t.Errorf("parseFloat(%q) = %v (%x), %v; strconv %v (%x), %v",
				s, got, math.Float64bits(got), gerr, want, math.Float64bits(want), werr)
		}
	})
}

// isNumericCases are the YAML values the generators write, the quirks of
// fmt's float token (a numeric prefix, a decimal with a binary exponent,
// a token fmt cuts short) and the spaces it skips before one.
var isNumericCases = []string{
	"nan", "+Inf", "0x1p4", "0X1P-2", "1p4", "1_000", "1e999", "12abc", "e5", ".5", "1.2.3", "-", "0x",
	"42", "12.345", "-10.5", "run 731", "true", "false", "user7", "perovskite", "2019-01-01",
	"NaN", "nano", "info", "ninf", "na5", "-in5", "1P4", "1p", "1p+4", "1p4_0", "0x1.8p1", "0xp1", "0x_1p0",
	"1e", "1e+", "1e_5", "p", "+.", "Infinity", "-inf", "", " 1", "\t-2.5", "\n1", "\r\n1", "\r1",
	"\u00a01", "\u20281", "\xff1", "1\n2",
}

// FuzzIsNumericMatchesSscanf: isNumeric agrees with fmt.Sscanf's %f
// (refIsNumeric) on every string, leading spaces and newlines included,
// though extractYAMLish only asks it of values it has trimmed.
func FuzzIsNumericMatchesSscanf(f *testing.F) {
	for _, c := range isNumericCases {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := isNumeric(s), refIsNumeric(s); got != want {
			t.Errorf("isNumeric(%q) = %v, fmt.Sscanf says %v", s, got, want)
		}
	})
}

// TestParseFloatAllocatesNothing: the shapes the corpus is made of,
// numbers and the words beside them, cost no allocation.
func TestParseFloatAllocatesNothing(t *testing.T) {
	for _, s := range []string{"0.123456", "-10.5000", "12.345", "42", "NA", "field_0", "Direct", "-x", "none"} {
		if n := testing.AllocsPerRun(20, func() { _, _ = parseFloat(s) }); n != 0 {
			t.Errorf("parseFloat(%q) cost %v allocations", s, n)
		}
	}
}

// TestPOSCARCostDoesNotGrowWithAtoms: the line index, the coordinates and
// the header's few slices, however many atoms there are.
func TestPOSCARCostDoesNotGrowWithAtoms(t *testing.T) {
	poscar := func(atoms int) []byte {
		var b strings.Builder
		fmt.Fprintf(&b, "generated\n1.0\n5.0 0 0\n0 5.0 0\n0 0 5.0\nSi O\n%d %d\nDirect\n", atoms/2, atoms-atoms/2)
		for i := 0; i < atoms; i++ {
			fmt.Fprintf(&b, "%.6f %.6f %.6f\n", float64(i)/float64(atoms), 0.5, float64(i%7)/7)
		}
		return []byte(b.String())
	}
	measure := func(data []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if s, ok := parsePOSCAR(data); !ok || len(s.Coords) != s.NAtoms {
				t.Fatalf("parsed %d of %d atoms, %v", len(s.Coords), s.NAtoms, ok)
			}
		})
	}
	small, large := measure(poscar(50)), measure(poscar(600))
	t.Logf("parsePOSCAR: 50 atoms %v, 600 atoms %v allocations", small, large)
	if large != small {
		t.Errorf("600 atoms cost %v allocations, 50 atoms %v: must not depend on atoms", large, small)
	}
}

// TestImageFeaturesCostIsTheDecode: over a decoded *image.RGBA the
// feature scan allocates nothing of its own.
func TestImageFeaturesCostIsTheDecode(t *testing.T) {
	data := makePhoto(t)
	decode := testing.AllocsPerRun(20, func() {
		if _, _, err := image.Decode(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	features := testing.AllocsPerRun(20, func() {
		if _, err := computeFeatures(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("image.Decode %v, computeFeatures %v allocations", decode, features)
	if features > decode {
		t.Errorf("computeFeatures cost %v allocations, image.Decode alone %v", features, decode)
	}
}
