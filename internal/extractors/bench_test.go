package extractors

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"xtract/internal/family"
)

// Micro-benchmarks for the extractor library: per-extractor throughput
// on representative content sizes. The BenchmarkHeavy* set, one
// extract-mdf step per iteration at the end-to-end benchmark's heavy
// sizes, is in corpus_test.go, where internal/dataset's generators can be
// imported.

func benchExtract(b *testing.B, e Extractor, path string, data []byte) {
	b.Helper()
	g := &family.Group{ID: "bench", Files: []string{path}}
	files := map[string][]byte{path: data}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Extract(g, files); err != nil {
			b.Fatal(err)
		}
	}
}

func benchText(words int) []byte {
	rng := rand.New(rand.NewSource(1))
	vocab := []string{"perovskite", "anneal", "lattice", "spectra", "sample", "energy"}
	out := make([]byte, 0, words*9)
	for i := 0; i < words; i++ {
		out = append(out, vocab[rng.Intn(len(vocab))]...)
		out = append(out, ' ')
	}
	return out
}

func benchCSV(rows int) []byte {
	out := []byte("a,b,c,d\n")
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < rows; i++ {
		for c := 0; c < 4; c++ {
			if c > 0 {
				out = append(out, ',')
			}
			out = append(out, []byte{byte('0' + rng.Intn(10)), '.', byte('0' + rng.Intn(10))}...)
		}
		out = append(out, '\n')
	}
	return out
}

func BenchmarkKeywordExtract(b *testing.B) {
	benchExtract(b, NewKeyword(15), "/doc.txt", benchText(2000))
}

func BenchmarkTabularExtract(b *testing.B) {
	benchExtract(b, NewTabular(), "/d.csv", benchCSV(500))
}

func BenchmarkNullValueExtract(b *testing.B) {
	benchExtract(b, NewNullValue(), "/d.csv", benchCSV(500))
}

func BenchmarkMatIOExtract(b *testing.B) {
	benchExtract(b, NewMatIO(), "/POSCAR", []byte(testPOSCAR))
}

func BenchmarkASEExtract(b *testing.B) {
	// 64-atom structure: the O(n²) RDF path.
	poscar := []byte("big\n1.0\n10 0 0\n0 10 0\n0 0 10\nSi\n64\nDirect\n")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 64; i++ {
		row := []byte{}
		for c := 0; c < 3; c++ {
			row = append(row, []byte{'0', '.', byte('0' + rng.Intn(10)), byte('0' + rng.Intn(10)), ' '}...)
		}
		poscar = append(poscar, row...)
		poscar = append(poscar, '\n')
	}
	benchExtract(b, NewASE(), "/POSCAR", poscar)
}

func BenchmarkEntityExtract(b *testing.B) {
	text := append(benchText(1000),
		[]byte(" contact tester@uchicago.edu about Fe2O3 at Argonne National Laboratory doi 10.1145/12345 ")...)
	benchExtract(b, NewEntity(), "/t.txt", text)
}

func BenchmarkHierarchicalExtract(b *testing.B) {
	root := &XHDNode{Name: "/", IsGroup: true}
	for i := 0; i < 16; i++ {
		root.Children = append(root.Children, &XHDNode{
			Name: "ds", DType: 0, Dims: []uint64{128}, Payload: make([]byte, 1024),
		})
	}
	benchExtract(b, NewHierarchical(), "/x.h5", EncodeXHD(root))
}

func BenchmarkSemiStructuredJSON(b *testing.B) {
	benchExtract(b, NewSemiStructured(), "/m.json",
		[]byte(`{"a":{"b":{"c":[1,2,3]}},"d":"text","e":true,"f":1.5}`))
}

// BenchmarkParseFloat: the corpus's number shapes (POSCAR coordinates
// %.6f, lattice and energies %.4f, table cells %.3f, half of them
// negative) and the words beside them, through parseFloat and through
// strconv.ParseFloat.
func BenchmarkParseFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var shapes []string
	for _, format := range []string{"%.6f", "%.4f", "%.3f"} {
		for i := 0; i < 32; i++ {
			shapes = append(shapes, fmt.Sprintf(format, (rng.Float64()-0.5)*40))
		}
	}
	shapes = append(shapes, "NA", "field_0", "Direct")
	for _, p := range []struct {
		name  string
		parse func(string) (float64, error)
	}{
		{"parseFloat", parseFloat},
		{"strconv", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }},
	} {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = p.parse(shapes[i%len(shapes)])
			}
		})
	}
}
