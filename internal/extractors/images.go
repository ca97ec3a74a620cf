package extractors

import (
	"bytes"
	"image"
	_ "image/gif"  // register GIF decoding
	_ "image/jpeg" // register JPEG decoding
	_ "image/png"  // register PNG decoding
	"sort"

	"xtract/internal/family"
	"xtract/internal/store"
)

// Image classes produced by the classifier, matching the paper's five
// ImageSort classes.
const (
	ClassPhotograph = "photograph"
	ClassPlot       = "plot"
	ClassDiagram    = "diagram"
	ClassMap        = "geographic map"
	ClassOther      = "other"
)

// imageFeatures are the color-histogram features the classifier scores —
// the stand-in for the paper's SVM feature vector.
type imageFeatures struct {
	Width, Height int
	WhiteFrac     float64 // fraction of near-white pixels
	DarkFrac      float64 // fraction of near-black pixels
	GreenBlueFrac float64 // fraction of green- or blue-dominant pixels
	DistinctQ     int     // distinct colors after 4-bit quantization
	EdgeFrac      float64 // fraction of pixels with a strong horizontal gradient
	MeanLuma      float64
}

// computeFeatures decodes the image and derives the feature vector.
func computeFeatures(data []byte) (imageFeatures, error) {
	img, _, err := image.Decode(bytes.NewReader(data))
	if err != nil {
		return imageFeatures{}, err
	}
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	f := imageFeatures{Width: w, Height: h}
	if w == 0 || h == 0 {
		return f, nil
	}
	// image/png decodes opaque truecolour, the corpus's kind, to
	// *image.RGBA, whose stored bytes are what At(x, y).RGBA()>>8 returns
	// without a boxed colour per pixel. Every other type goes through At.
	rgba, _ := img.(*image.RGBA)
	var seen [4096]bool // quantised colours are 12 bits wide
	var white, dark, gb, edges, total, distinct int
	var lumaSum float64
	// Sample a grid of at most 128x128 points for speed on big images.
	stepX, stepY := w/128+1, h/128+1
	var prevLuma float64
	for y := b.Min.Y; y < b.Max.Y; y += stepY {
		prevLuma = -1
		for x := b.Min.X; x < b.Max.X; x += stepX {
			var r8, g8, b8 uint32
			if rgba != nil {
				p := rgba.Pix[rgba.PixOffset(x, y):]
				r8, g8, b8 = uint32(p[0]), uint32(p[1]), uint32(p[2])
			} else {
				r, g, bl, _ := img.At(x, y).RGBA()
				r8, g8, b8 = r>>8, g>>8, bl>>8
			}
			total++
			luma := 0.299*float64(r8) + 0.587*float64(g8) + 0.114*float64(b8)
			lumaSum += luma
			if r8 > 230 && g8 > 230 && b8 > 230 {
				white++
			}
			if r8 < 40 && g8 < 40 && b8 < 40 {
				dark++
			}
			if (g8 > r8+20 && g8 > b8) || (b8 > r8+20 && b8 > g8) {
				gb++
			}
			q := (r8>>4)<<8 | (g8>>4)<<4 | (b8 >> 4)
			if !seen[q] {
				seen[q] = true
				distinct++
			}
			if prevLuma >= 0 && abs64(luma-prevLuma) > 60 {
				edges++
			}
			prevLuma = luma
		}
	}
	ft := float64(total)
	f.WhiteFrac = float64(white) / ft
	f.DarkFrac = float64(dark) / ft
	f.GreenBlueFrac = float64(gb) / ft
	f.DistinctQ = distinct
	f.EdgeFrac = float64(edges) / ft
	f.MeanLuma = lumaSum / ft
	return f, nil
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// classify assigns one of the five classes from the feature vector. The
// rules stand in for the paper's pretrained SVM: a fixed linear decision
// list over the same histogram features.
func classify(f imageFeatures) string {
	colored := 1 - f.WhiteFrac - f.DarkFrac // non-white, non-black area
	switch {
	case f.GreenBlueFrac > 0.45:
		return ClassMap
	case f.WhiteFrac > 0.55 && colored < 0.10 && (f.DarkFrac > 0.01 || f.EdgeFrac > 0.005):
		// Mostly white with thin dark ink: axes and curves.
		return ClassPlot
	case f.WhiteFrac > 0.20 && f.DistinctQ <= 24:
		// Large flat color regions over a light background.
		return ClassDiagram
	case f.DistinctQ > 200:
		return ClassPhotograph
	default:
		return ClassOther
	}
}

// isImageInfo reports whether crawl metadata marks the file as an image.
func isImageInfo(info store.FileInfo) bool {
	if info.IsDir {
		return false
	}
	switch info.Extension {
	case "png", "jpg", "jpeg", "gif", "tif", "tiff", "bmp":
		return true
	}
	switch info.MimeType {
	case store.MimePNG, store.MimeJPEG:
		return true
	}
	return false
}

// ImageSort is the short-duration classifier used in the scaling
// experiments: it decodes each image and assigns one of five classes.
type ImageSort struct{}

// NewImageSort returns the ImageSort extractor.
func NewImageSort() *ImageSort { return &ImageSort{} }

// Name implements Extractor.
func (s *ImageSort) Name() string { return "imagesort" }

// Version implements Versioner for the result cache key.
func (s *ImageSort) Version() string { return "1" }

// Container implements Extractor.
func (s *ImageSort) Container() string { return "xtract-images" }

// Applies implements Extractor.
func (s *ImageSort) Applies(info store.FileInfo) bool { return isImageInfo(info) }

// Extract implements Extractor.
func (s *ImageSort) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	classes := make(map[string]string)
	paths := sortedKeys(files)
	decoded := 0
	for _, p := range paths {
		f, err := computeFeatures(files[p])
		if err != nil {
			continue
		}
		decoded++
		classes[p] = classify(f)
	}
	if decoded == 0 {
		return nil, ErrNotApplicable
	}
	return map[string]interface{}{"classes": classes, "images": decoded}, nil
}

// imagenetLabels maps a dominant-color bucket to entity labels — the
// deterministic stand-in for the ImageNet model applied to photographs.
var imagenetLabels = map[string][]string{
	"red":   {"apple", "brick"},
	"green": {"foliage", "grass"},
	"blue":  {"sky", "water"},
	"gray":  {"building", "road"},
	"dark":  {"night scene"},
	"light": {"document", "snow"},
}

// mapGazetteer are location names recognized by the mock OCR pipeline.
var mapGazetteer = map[string]bool{
	"south america": true, "north america": true, "europe": true,
	"asia": true, "africa": true, "australia": true, "antarctica": true,
	"montgomery, minnesota": true, "chicago, illinois": true,
	"lemont, illinois": true, "austin, texas": true, "bloomington, indiana": true,
}

// Images is the full images extractor: it classifies each image and then
// dynamically extends the workflow per class — photographs get entity
// labels (ImageNet stand-in), maps get OCR'd location tags (recovered
// from PNG tEXt metadata).
type Images struct{}

// NewImages returns the images extractor.
func NewImages() *Images { return &Images{} }

// Name implements Extractor.
func (i *Images) Name() string { return "images" }

// Version implements Versioner for the result cache key.
func (i *Images) Version() string { return "1" }

// Container implements Extractor.
func (i *Images) Container() string { return "xtract-images" }

// Applies implements Extractor.
func (i *Images) Applies(info store.FileInfo) bool { return isImageInfo(info) }

// Extract implements Extractor.
func (i *Images) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	paths := sortedKeys(files)
	perImage := make(map[string]interface{})
	decoded := 0
	for _, p := range paths {
		data := files[p]
		f, err := computeFeatures(data)
		if err != nil {
			continue
		}
		decoded++
		class := classify(f)
		md := map[string]interface{}{
			"class":  class,
			"width":  f.Width,
			"height": f.Height,
		}
		switch class {
		case ClassPhotograph:
			md["entities"] = photoEntities(f)
		case ClassMap:
			if tags := ocrLocationTags(data); len(tags) > 0 {
				md["locations"] = tags
			}
		}
		perImage[p] = md
	}
	if decoded == 0 {
		return nil, ErrNotApplicable
	}
	return map[string]interface{}{"images": perImage, "count": decoded}, nil
}

// photoEntities derives entity labels from the dominant color bucket.
func photoEntities(f imageFeatures) []string {
	switch {
	case f.GreenBlueFrac > 0.3:
		return imagenetLabels["green"]
	case f.MeanLuma < 60:
		return imagenetLabels["dark"]
	case f.MeanLuma > 200:
		return imagenetLabels["light"]
	default:
		return imagenetLabels["gray"]
	}
}

// ocrLocationTags recovers location labels from a map image. The paper
// runs OCR over rendered labels; here the dataset generator embeds the
// same labels as PNG tEXt metadata, which we parse and screen against
// the gazetteer.
func ocrLocationTags(data []byte) []string {
	chunks, err := PNGTextChunks(data)
	if err != nil {
		return nil
	}
	var tags []string
	for k, v := range chunks {
		if k == "location" {
			for _, loc := range splitAndTrim(v) {
				if mapGazetteer[loc] {
					tags = append(tags, loc)
				}
			}
		}
	}
	sort.Strings(tags)
	return tags
}

func splitAndTrim(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ';' {
			part := s[start:i]
			// trim spaces, lowercase
			j, k := 0, len(part)
			for j < k && part[j] == ' ' {
				j++
			}
			for k > j && part[k-1] == ' ' {
				k--
			}
			if j < k {
				out = append(out, toLowerASCII(part[j:k]))
			}
			start = i + 1
		}
	}
	return out
}

func toLowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}
