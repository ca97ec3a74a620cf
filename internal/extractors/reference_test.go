package extractors

// The kernels as they were at the parent commit of the single-pass
// rewrite (4cf6f2d), moved here verbatim apart from the ref prefix on
// their names and receivers turned into parameters. They are the
// definition of every extractor's output: the kernels in the non-test
// files are held to them byte for byte by differential_test.go and, over
// internal/dataset's generators, by corpus_test.go. Do not tidy them.

import (
	"bytes"
	"encoding/csv"
	"image"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"xtract/internal/family"
)

// refNullMarkers are cell values treated as missing data.
var refNullMarkers = map[string]bool{
	"": true, "na": true, "n/a": true, "null": true, "none": true,
	"nan": true, "-999": true, "-9999": true, "missing": true, "?": true,
}

// refSplit is csv.Reader.ReadAll with parseTable's settings: what the
// in-place splitter must return for quote-free text.
func refSplit(text string, delim rune) ([][]string, error) {
	r := csv.NewReader(strings.NewReader(text))
	r.Comma = delim
	r.FieldsPerRecord = -1
	r.LazyQuotes = true
	return r.ReadAll()
}

// refExtractor swaps one extractor's Extract for its reference.
type refExtractor struct {
	Extractor
	extract func(g *family.Group, files map[string][]byte) (map[string]interface{}, error)
}

func (r refExtractor) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	return r.extract(g, files)
}

// ReferenceLibrary is DefaultLibrary with every rewritten extractor
// replaced by its reference (exported for corpus_test.go).
func ReferenceLibrary() *Library {
	l := DefaultLibrary()
	kw, ase := NewKeyword(15), NewASE()
	for _, r := range []refExtractor{
		{NewTabular(), refTabularExtract},
		{NewNullValue(), refNullValueExtract},
		{kw, func(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
			return refKeywordExtract(kw, g, files)
		}},
		{NewMatIO(), refMatIOExtract},
		{ase, func(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
			return refASEExtract(ase, g, files)
		}},
		{NewImageSort(), refImageSortExtract},
		{NewImages(), refImagesExtract},
	} {
		l.Register(r)
	}
	return l
}

// refIsNullCell reports whether a cell value is a recognized null marker.
func refIsNullCell(v string) bool {
	return refNullMarkers[strings.ToLower(strings.TrimSpace(v))]
}

// refParseTable sniffs the delimiter, parses rows, and reports whether the
// first row is a header.
func refParseTable(data []byte) (header []string, rows [][]string, ok bool) {
	text := string(data)
	delim := sniffDelimiter(text)
	r := csv.NewReader(strings.NewReader(text))
	r.Comma = delim
	r.FieldsPerRecord = -1
	r.LazyQuotes = true
	all, err := r.ReadAll()
	if err != nil || len(all) == 0 {
		return nil, nil, false
	}
	// Drop ragged trailing rows so columns line up.
	width := len(all[0])
	var regular [][]string
	for _, row := range all {
		if len(row) == width {
			regular = append(regular, row)
		}
	}
	if len(regular) == 0 || width < 2 {
		return nil, nil, false
	}
	if looksLikeHeader(regular) {
		return regular[0], regular[1:], true
	}
	header = make([]string, width)
	for i := range header {
		header[i] = "col" + strconv.Itoa(i)
	}
	return header, regular, true
}

func refTabularExtract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	var allCols []ColumnStats
	totalRows := 0
	tables := 0
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		header, rows, ok := refParseTable(files[p])
		if !ok {
			continue
		}
		tables++
		totalRows += len(rows)
		for c, name := range header {
			stats := ColumnStats{Name: name}
			var vals []float64
			distinct := make(map[string]bool)
			for _, row := range rows {
				cell := strings.TrimSpace(row[c])
				if refIsNullCell(cell) {
					stats.Nulls++
					continue
				}
				stats.Count++
				distinct[cell] = true
				if v, err := strconv.ParseFloat(cell, 64); err == nil {
					vals = append(vals, v)
				}
			}
			stats.Distinct = len(distinct)
			if stats.Count > 0 && len(vals)*2 >= stats.Count {
				stats.Type = "numeric"
				stats.Mean, stats.Min, stats.Max, stats.Stddev = summarize(vals)
			} else {
				stats.Type = "string"
			}
			allCols = append(allCols, stats)
		}
	}
	if tables == 0 {
		return nil, ErrNotApplicable
	}
	return map[string]interface{}{
		"tables":  tables,
		"rows":    totalRows,
		"columns": allCols,
	}, nil
}

func refNullValueExtract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	totalCells, nullCells := 0, 0
	markerCounts := make(map[string]int)
	colNulls := make(map[string]int)
	parsedAny := false
	for _, data := range files {
		header, rows, ok := refParseTable(data)
		if !ok {
			continue
		}
		parsedAny = true
		for _, row := range rows {
			for c, cell := range row {
				totalCells++
				trimmed := strings.ToLower(strings.TrimSpace(cell))
				if refNullMarkers[trimmed] {
					nullCells++
					marker := trimmed
					if marker == "" {
						marker = "<empty>"
					}
					markerCounts[marker]++
					colNulls[header[c]]++
				}
			}
		}
	}
	if !parsedAny {
		return nil, ErrNotApplicable
	}
	rate := 0.0
	if totalCells > 0 {
		rate = float64(nullCells) / float64(totalCells)
	}
	return map[string]interface{}{
		"total_cells":  totalCells,
		"null_cells":   nullCells,
		"null_rate":    rate,
		"null_markers": sortedKeys(markerCounts),
		"null_columns": sortedKeys(colNulls),
	}, nil
}

func refKeywordExtract(k *Keyword, g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	tf := make(map[string]int)
	totalTokens := 0
	looksTabular := false
	for _, data := range files {
		text := string(data)
		if refIsProbablyTabular(text) {
			looksTabular = true
		}
		for _, tok := range refTokenize(text) {
			if stopwords[tok] || len(tok) < 3 {
				continue
			}
			tf[tok]++
			totalTokens++
		}
	}
	if totalTokens == 0 {
		md := map[string]interface{}{"keywords": []KeywordWeight{}, "tokens": 0}
		if looksTabular {
			md[SuggestKey] = []string{"tabular"}
		}
		return md, nil
	}
	type scored struct {
		word  string
		score float64
	}
	var all []scored
	for w, c := range tf {
		// TF with a length boost standing in for embedding-based rarity:
		// longer tokens are rarer and more descriptive in scientific text.
		score := float64(c) / float64(totalTokens) * (1 + float64(len(w))/10)
		all = append(all, scored{w, score})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].word < all[j].word
	})
	n := k.TopN
	if n > len(all) {
		n = len(all)
	}
	keywords := make([]KeywordWeight, 0, n)
	for _, s := range all[:n] {
		keywords = append(keywords, KeywordWeight{Keyword: s.word, Weight: s.score})
	}
	md := map[string]interface{}{
		"keywords": keywords,
		"tokens":   totalTokens,
		"distinct": len(tf),
	}
	if looksTabular {
		// Dynamic plan: this "free text" file also contains a table.
		md[SuggestKey] = []string{"tabular"}
	}
	return md, nil
}

// refTokenize lowercases and splits on non-letter runes.
func refTokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r)
	})
}

// refIsProbablyTabular reports whether most non-empty lines have the same
// comma/tab field count greater than one.
func refIsProbablyTabular(text string) bool {
	lines := strings.Split(text, "\n")
	counts := make(map[int]int)
	nonEmpty := 0
	for _, ln := range lines {
		ln = strings.TrimSpace(ln)
		if ln == "" {
			continue
		}
		nonEmpty++
		c := strings.Count(ln, ",")
		if t := strings.Count(ln, "\t"); t > c {
			c = t
		}
		counts[c]++
	}
	if nonEmpty < 3 {
		return false
	}
	for fields, n := range counts {
		if fields >= 1 && n*2 > nonEmpty {
			return true
		}
	}
	return false
}

func refMatIOExtract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	md := make(map[string]interface{})
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	parsed := 0
	for _, p := range paths {
		base := strings.ToUpper(baseName(p))
		data := files[p]
		switch {
		case base == "INCAR":
			if params := refParseINCAR(data); len(params) > 0 {
				md["incar"] = params
				parsed++
			}
		case base == "POSCAR" || base == "CONTCAR":
			if s, ok := refParsePOSCAR(data); ok {
				md["structure"] = s
				parsed++
			}
		case base == "OUTCAR":
			if r, ok := refParseOUTCAR(data); ok {
				md["results"] = r
				parsed++
			}
		case strings.HasSuffix(strings.ToLower(p), ".cif"):
			if c, ok := refParseCIF(data); ok {
				md["crystal"] = c
				parsed++
			}
		case strings.HasSuffix(strings.ToLower(p), ".xyz"):
			if x, ok := refParseXYZ(data); ok {
				md["geometry"] = x
				parsed++
			}
		case strings.HasSuffix(strings.ToLower(p), ".dft"):
			if d, ok := refParseDFTLog(data); ok {
				md["dft"] = d
				parsed++
			}
		}
	}
	if parsed == 0 {
		return nil, ErrNotApplicable
	}
	md["parsed_files"] = parsed
	return md, nil
}

// refParseINCAR reads KEY = VALUE parameter lines.
func refParseINCAR(data []byte) map[string]string {
	out := make(map[string]string)
	for _, ln := range strings.Split(string(data), "\n") {
		ln = strings.TrimSpace(ln)
		if ln == "" || strings.HasPrefix(ln, "#") || strings.HasPrefix(ln, "!") {
			continue
		}
		if i := strings.Index(ln, "="); i > 0 {
			key := strings.TrimSpace(ln[:i])
			val := strings.TrimSpace(ln[i+1:])
			if key != "" && val != "" {
				out[strings.ToUpper(key)] = val
			}
		}
	}
	return out
}

// refParsePOSCAR reads the VASP structure format: comment, scale factor,
// three lattice vectors, species, counts, coordinate mode, coordinates.
func refParsePOSCAR(data []byte) (Structure, bool) {
	lines := refNonEmptyLines(string(data))
	if len(lines) < 7 {
		return Structure{}, false
	}
	var s Structure
	s.Comment = strings.TrimSpace(lines[0])
	scale, err := strconv.ParseFloat(strings.TrimSpace(lines[1]), 64)
	if err != nil {
		return Structure{}, false
	}
	s.Scale = scale
	for i := 0; i < 3; i++ {
		v, ok := refParseVec3(lines[2+i])
		if !ok {
			return Structure{}, false
		}
		s.Lattice[i] = v
	}
	s.Volume = math.Abs(det3(s.Lattice)) * scale * scale * scale
	s.Species = strings.Fields(lines[5])
	for _, c := range strings.Fields(lines[6]) {
		n, err := strconv.Atoi(c)
		if err != nil {
			return Structure{}, false
		}
		s.Counts = append(s.Counts, n)
		s.NAtoms += n
	}
	if len(s.Species) != len(s.Counts) || s.NAtoms == 0 {
		return Structure{}, false
	}
	s.Composition = make(map[string]float64, len(s.Species))
	for i, sp := range s.Species {
		s.Composition[sp] = float64(s.Counts[i]) / float64(s.NAtoms)
	}
	// Coordinates: skip the mode line ("Direct"/"Cartesian"), then read
	// up to NAtoms coordinate triples.
	for i := 8; i < len(lines) && len(s.Coords) < s.NAtoms; i++ {
		if v, ok := refParseVec3(lines[i]); ok {
			s.Coords = append(s.Coords, v)
		}
	}
	return s, true
}

func refNonEmptyLines(text string) []string {
	var out []string
	for _, ln := range strings.Split(text, "\n") {
		if strings.TrimSpace(ln) != "" {
			out = append(out, ln)
		}
	}
	return out
}

func refParseVec3(line string) ([3]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return [3]float64{}, false
	}
	var v [3]float64
	for i := 0; i < 3; i++ {
		f, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return [3]float64{}, false
		}
		v[i] = f
	}
	return v, true
}

// refParseOUTCAR scans VASP output for the total energy, Fermi level, and
// ionic step count.
func refParseOUTCAR(data []byte) (VASPResults, bool) {
	var r VASPResults
	found := false
	for _, ln := range strings.Split(string(data), "\n") {
		switch {
		case strings.Contains(ln, "TOTEN"):
			if v, ok := refLastFloatBefore(ln, "eV"); ok {
				r.FinalEnergyEV = v
				r.IonicSteps++
				found = true
			}
		case strings.Contains(ln, "E-fermi"):
			if fields := strings.Fields(strings.SplitN(ln, ":", 2)[1]); len(fields) > 0 {
				if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
					r.EFermi = v
					found = true
				}
			}
		case strings.Contains(ln, "reached required accuracy"):
			r.Converged = true
		}
	}
	return r, found
}

// refLastFloatBefore parses the last float token preceding marker in line.
func refLastFloatBefore(line, marker string) (float64, bool) {
	idx := strings.LastIndex(line, marker)
	if idx < 0 {
		idx = len(line)
	}
	fields := strings.Fields(line[:idx])
	for i := len(fields) - 1; i >= 0; i-- {
		if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
			return v, true
		}
	}
	return 0, false
}

// refParseCIF reads the "_key value" lines of a CIF file.
func refParseCIF(data []byte) (Crystal, bool) {
	var c Crystal
	c.Tags = make(map[string]string)
	found := false
	for _, ln := range strings.Split(string(data), "\n") {
		ln = strings.TrimSpace(ln)
		if !strings.HasPrefix(ln, "_") {
			continue
		}
		fields := strings.SplitN(ln, " ", 2)
		if len(fields) != 2 {
			continue
		}
		key := fields[0]
		val := strings.Trim(strings.TrimSpace(fields[1]), "'\"")
		switch key {
		case "_cell_length_a":
			c.CellA, _ = strconv.ParseFloat(val, 64)
			found = true
		case "_cell_length_b":
			c.CellB, _ = strconv.ParseFloat(val, 64)
		case "_cell_length_c":
			c.CellC, _ = strconv.ParseFloat(val, 64)
		case "_cell_angle_alpha":
			c.Angles[0], _ = strconv.ParseFloat(val, 64)
		case "_cell_angle_beta":
			c.Angles[1], _ = strconv.ParseFloat(val, 64)
		case "_cell_angle_gamma":
			c.Angles[2], _ = strconv.ParseFloat(val, 64)
		case "_chemical_formula_sum":
			c.Formula = val
			found = true
		default:
			c.Tags[key] = val
		}
	}
	return c, found
}

// refParseXYZ reads the XYZ atomistic format: atom count, comment, then
// "Symbol x y z" lines.
func refParseXYZ(data []byte) (Geometry, bool) {
	lines := strings.Split(string(data), "\n")
	if len(lines) < 2 {
		return Geometry{}, false
	}
	n, err := strconv.Atoi(strings.TrimSpace(lines[0]))
	if err != nil || n <= 0 {
		return Geometry{}, false
	}
	g := Geometry{NAtoms: n, Comment: strings.TrimSpace(lines[1]), Symbols: make(map[string]int)}
	for i := 2; i < len(lines) && len(g.Coords) < n; i++ {
		fields := strings.Fields(lines[i])
		if len(fields) < 4 {
			continue
		}
		x, e1 := strconv.ParseFloat(fields[1], 64)
		y, e2 := strconv.ParseFloat(fields[2], 64)
		z, e3 := strconv.ParseFloat(fields[3], 64)
		if e1 != nil || e2 != nil || e3 != nil {
			continue
		}
		g.Symbols[fields[0]]++
		g.Coords = append(g.Coords, [3]float64{x, y, z})
	}
	if len(g.Coords) == 0 {
		return Geometry{}, false
	}
	return g, true
}

// refParseDFTLog scans a generic DFT output log. (The kernel's body
// before it moved onto nextLine and ASCII case-folding.)
func refParseDFTLog(data []byte) (map[string]interface{}, bool) {
	var energy float64
	var scfSteps int
	converged := false
	found := false
	for _, ln := range strings.Split(string(data), "\n") {
		lower := strings.ToLower(ln)
		switch {
		case strings.Contains(lower, "total energy"):
			if v, ok := refLastFloatBefore(ln, "Ry"); ok {
				energy = v
				found = true
			}
		case strings.Contains(lower, "scf cycle"):
			scfSteps++
		case strings.Contains(lower, "convergence achieved"):
			converged = true
			found = true
		}
	}
	if !found {
		return nil, false
	}
	return map[string]interface{}{
		"total_energy": energy,
		"scf_steps":    scfSteps,
		"converged":    converged,
	}, true
}

func refASEExtract(a *ASE, g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var coords [][3]float64
	for _, p := range paths {
		base := strings.ToUpper(baseName(p))
		if base == "POSCAR" || base == "CONTCAR" {
			if s, ok := refParsePOSCAR(files[p]); ok {
				coords = append(coords, s.Coords...)
			}
		} else if strings.HasSuffix(strings.ToLower(p), ".xyz") {
			if x, ok := refParseXYZ(files[p]); ok {
				coords = append(coords, x.Coords...)
			}
		}
	}
	if len(coords) == 0 {
		return nil, ErrNotApplicable
	}
	rdf, meanNN := a.radialDistribution(coords)
	return map[string]interface{}{
		"n_atoms":          len(coords),
		"rdf":              rdf,
		"mean_nn_distance": meanNN,
		"analysis":         "radial-distribution",
		"pairs_enumerated": len(coords) * (len(coords) - 1) / 2,
	}, nil
}

// refComputeFeatures decodes the image and derives the feature vector.
func refComputeFeatures(data []byte) (imageFeatures, error) {
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
	distinct := make(map[uint32]bool)
	var white, dark, gb, edges, total int
	var lumaSum float64
	// Sample a grid of at most 128x128 points for speed on big images.
	stepX, stepY := w/128+1, h/128+1
	var prevLuma float64
	for y := b.Min.Y; y < b.Max.Y; y += stepY {
		prevLuma = -1
		for x := b.Min.X; x < b.Max.X; x += stepX {
			r, g, bl, _ := img.At(x, y).RGBA()
			r8, g8, b8 := r>>8, g>>8, bl>>8
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
			distinct[q] = true
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
	f.DistinctQ = len(distinct)
	f.EdgeFrac = float64(edges) / ft
	f.MeanLuma = lumaSum / ft
	return f, nil
}

func refImageSortExtract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	classes := make(map[string]string)
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	decoded := 0
	for _, p := range paths {
		f, err := refComputeFeatures(files[p])
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

func refImagesExtract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	perImage := make(map[string]map[string]interface{})
	decoded := 0
	for _, p := range paths {
		data := files[p]
		f, err := refComputeFeatures(data)
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

// extractYAMLish handles flat "key: value" documents (enough for the
// MDF-style yaml sidecars in the dataset generator) without a YAML
// dependency.
func refExtractYAMLish(text string) map[string]interface{} {
	keys := make(map[string]string)
	for _, ln := range strings.Split(text, "\n") {
		ln = strings.TrimRight(ln, "\r")
		if strings.TrimSpace(ln) == "" || strings.HasPrefix(strings.TrimSpace(ln), "#") {
			continue
		}
		if i := strings.Index(ln, ":"); i > 0 {
			key := strings.TrimSpace(ln[:i])
			val := strings.TrimSpace(ln[i+1:])
			if key != "" && !strings.Contains(key, " ") {
				typ := "string"
				if val == "" {
					typ = "mapping"
				} else if isNumeric(val) {
					typ = "number"
				} else if val == "true" || val == "false" {
					typ = "bool"
				}
				keys[key] = typ
			}
		}
	}
	if len(keys) == 0 {
		return nil
	}
	return map[string]interface{}{
		"format":   "yaml",
		"keys":     keys,
		"num_keys": len(keys),
	}
}
