package extractors

import (
	"bytes"
	"errors"
	"image"
	"image/color"
	"image/png"
	"math/rand"
	"testing"

	"xtract/internal/family"
)

// encodePNG renders img to PNG bytes.
func encodePNG(t *testing.T, img image.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// makePhoto builds a noisy, colorful image (high distinct-color count).
func makePhoto(t *testing.T) []byte {
	rng := rand.New(rand.NewSource(1))
	img := image.NewRGBA(image.Rect(0, 0, 64, 64))
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			img.Set(x, y, color.RGBA{
				R: uint8(rng.Intn(256)), G: uint8(rng.Intn(200)),
				B: uint8(rng.Intn(200)), A: 255,
			})
		}
	}
	return encodePNG(t, img)
}

// makePlot builds a white-background image with dark axis lines.
func makePlot(t *testing.T) []byte {
	img := image.NewRGBA(image.Rect(0, 0, 64, 64))
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			img.Set(x, y, color.White)
		}
	}
	for i := 0; i < 64; i++ {
		img.Set(5, i, color.Black)      // y axis
		img.Set(i, 58, color.Black)     // x axis
		img.Set(i, 64-i-1, color.Black) // data line
	}
	return encodePNG(t, img)
}

// makeDiagram builds a white background with a few flat color blocks.
func makeDiagram(t *testing.T) []byte {
	img := image.NewRGBA(image.Rect(0, 0, 64, 64))
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			img.Set(x, y, color.White)
		}
	}
	for y := 10; y < 30; y++ {
		for x := 10; x < 30; x++ {
			img.Set(x, y, color.RGBA{R: 200, G: 60, B: 60, A: 255})
		}
	}
	for y := 35; y < 55; y++ {
		for x := 35; x < 55; x++ {
			img.Set(x, y, color.RGBA{R: 60, G: 60, B: 200, A: 255})
		}
	}
	return encodePNG(t, img)
}

// makeMap builds a green/blue dominated image (geography-like).
func makeMap(t *testing.T) []byte {
	img := image.NewRGBA(image.Rect(0, 0, 64, 64))
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			if (x/8+y/8)%2 == 0 {
				img.Set(x, y, color.RGBA{R: 30, G: 140, B: 60, A: 255}) // land
			} else {
				img.Set(x, y, color.RGBA{R: 30, G: 80, B: 180, A: 255}) // water
			}
		}
	}
	return encodePNG(t, img)
}

func TestClassifierClasses(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"photo", makePhoto(t), ClassPhotograph},
		{"plot", makePlot(t), ClassPlot},
		{"diagram", makeDiagram(t), ClassDiagram},
		{"map", makeMap(t), ClassMap},
	}
	for _, c := range cases {
		f, err := computeFeatures(c.data)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := classify(f); got != c.want {
			t.Errorf("%s classified as %q, want %q (features %+v)", c.name, got, c.want, f)
		}
	}
}

func TestImageSortExtract(t *testing.T) {
	s := NewImageSort()
	md, err := s.Extract(&family.Group{}, map[string][]byte{
		"/a.png": makePhoto(t),
		"/b.png": makePlot(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	classes := md["classes"].(map[string]string)
	if classes["/a.png"] != ClassPhotograph || classes["/b.png"] != ClassPlot {
		t.Fatalf("classes = %v", classes)
	}
	if md["images"].(int) != 2 {
		t.Fatalf("images = %v", md["images"])
	}
}

func TestImageSortRejectsGarbage(t *testing.T) {
	s := NewImageSort()
	if _, err := s.Extract(&family.Group{}, map[string][]byte{
		"/junk.png": []byte("not an image"),
	}); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("err = %v", err)
	}
}

func TestImagesPhotoEntities(t *testing.T) {
	i := NewImages()
	md, err := i.Extract(&family.Group{}, map[string][]byte{"/p.png": makePhoto(t)})
	if err != nil {
		t.Fatal(err)
	}
	per := md["images"].(map[string]interface{})
	pmd := per["/p.png"].(map[string]interface{})
	if pmd["class"] != ClassPhotograph {
		t.Fatalf("class = %v", pmd["class"])
	}
	if _, ok := pmd["entities"].([]string); !ok {
		t.Fatalf("no entities on photograph: %v", pmd)
	}
	if pmd["width"].(int) != 64 || pmd["height"].(int) != 64 {
		t.Fatalf("dims = %vx%v", pmd["width"], pmd["height"])
	}
}

func TestImagesMapLocationOCR(t *testing.T) {
	raw := makeMap(t)
	tagged, err := InsertPNGText(raw, "location", "South America; Montgomery, Minnesota; Atlantis")
	if err != nil {
		t.Fatal(err)
	}
	i := NewImages()
	md, err := i.Extract(&family.Group{}, map[string][]byte{"/map.png": tagged})
	if err != nil {
		t.Fatal(err)
	}
	per := md["images"].(map[string]interface{})
	locs, ok := per["/map.png"].(map[string]interface{})["locations"].([]string)
	if !ok {
		t.Fatalf("no locations: %v", per)
	}
	// Atlantis is not in the gazetteer.
	if len(locs) != 2 || locs[0] != "montgomery, minnesota" || locs[1] != "south america" {
		t.Fatalf("locations = %v", locs)
	}
}

func TestPNGTextRoundTrip(t *testing.T) {
	raw := makePlot(t)
	withText, err := InsertPNGText(raw, "location", "Europe")
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := PNGTextChunks(withText)
	if err != nil {
		t.Fatal(err)
	}
	if chunks["location"] != "Europe" {
		t.Fatalf("chunks = %v", chunks)
	}
	// The augmented PNG must still decode as an image.
	if _, err := computeFeatures(withText); err != nil {
		t.Fatalf("augmented PNG no longer decodes: %v", err)
	}
}

func TestPNGTextOnNonPNG(t *testing.T) {
	if _, err := PNGTextChunks([]byte("garbage")); err == nil {
		t.Fatal("expected error on non-PNG")
	}
	if _, err := InsertPNGText([]byte("garbage"), "k", "v"); err == nil {
		t.Fatal("expected error on non-PNG")
	}
}
