package extractors

import (
	"encoding/csv"
	"math"
	"strconv"
	"strings"

	"xtract/internal/family"
	"xtract/internal/store"
)

// Tabular processes row-column data (spreadsheets, database dumps),
// deriving header metadata and per-column aggregates (mean, min, max,
// stddev for numeric columns; distinct counts for string columns).
type Tabular struct{}

// NewTabular returns the tabular extractor.
func NewTabular() *Tabular { return &Tabular{} }

// Name implements Extractor.
func (t *Tabular) Name() string { return "tabular" }

// Version implements Versioner for the result cache key.
func (t *Tabular) Version() string { return "1" }

// Container implements Extractor.
func (t *Tabular) Container() string { return "xtract-tabular" }

// Applies implements Extractor.
func (t *Tabular) Applies(info store.FileInfo) bool {
	if info.IsDir {
		return false
	}
	switch info.Extension {
	case "csv", "tsv", "tab", "dat":
		return true
	}
	return info.MimeType == store.MimeCSV
}

// ColumnStats summarizes one column.
type ColumnStats struct {
	Name     string  `json:"name"`
	Type     string  `json:"type"` // "numeric" or "string"
	Count    int     `json:"count"`
	Nulls    int     `json:"nulls"`
	Mean     float64 `json:"mean,omitempty"`
	Min      float64 `json:"min,omitempty"`
	Max      float64 `json:"max,omitempty"`
	Stddev   float64 `json:"stddev,omitempty"`
	Distinct int     `json:"distinct,omitempty"`
}

// AppendCanonical implements fastjson.Canonical.
func (c ColumnStats) AppendCanonical(dst []byte) ([]byte, error) {
	m := object(dst)
	m.integer("count", c.Count)
	if c.Distinct != 0 {
		m.integer("distinct", c.Distinct)
	}
	if c.Max != 0 {
		m.number("max", c.Max)
	}
	if c.Mean != 0 {
		m.number("mean", c.Mean)
	}
	if c.Min != 0 {
		m.number("min", c.Min)
	}
	m.text("name", c.Name)
	m.integer("nulls", c.Nulls)
	if c.Stddev != 0 {
		m.number("stddev", c.Stddev)
	}
	m.text("type", c.Type)
	return m.end()
}

// Columns is a tabular result's "columns" list.
type Columns []ColumnStats

// AppendCanonical implements fastjson.Canonical.
func (cs Columns) AppendCanonical(dst []byte) ([]byte, error) { return appendRecords(dst, cs) }

// nullMarkers are cell values treated as missing data.
var nullMarkers = []string{
	"", "na", "n/a", "null", "none", "nan", "-999", "-9999", "missing", "?",
}

// IsNullCell reports whether a cell value is a recognized null marker.
func IsNullCell(v string) bool {
	_, null := nullMarker(strings.TrimSpace(v))
	return null
}

// nullMarker reports whether an already-trimmed cell spells a null
// marker in any letter case, and which. An ASCII cell is compared where
// it lies; any other first takes strings.ToLower, which lands on ASCII
// where EqualFold does not (U+0130 lowers to 'i': "m\u0130ssing" is
// missing data) and, by the length test, not where it would (U+017F).
// No marker begins with a digit, '.' or '+', nor with '-' and then
// anything but '9', so a number is answered at once.
func nullMarker(cell string) (string, bool) {
	if cell != "" {
		switch c := cell[0]; {
		case '0' <= c && c <= '9', c == '.', c == '+', c == '-' && (len(cell) == 1 || cell[1] != '9'):
			return "", false
		}
	}
	if !isASCII(cell) {
		cell = strings.ToLower(cell)
	}
	for _, m := range nullMarkers {
		if len(m) == len(cell) && strings.EqualFold(m, cell) {
			return m, true
		}
	}
	return "", false
}

// parseTable sniffs the delimiter, parses rows, and reports whether the
// first row is a header.
func parseTable(data []byte) (header []string, rows [][]string, ok bool) {
	text := string(data)
	delim := sniffDelimiter(text)
	var all [][]string
	if strings.IndexByte(text, '"') < 0 {
		all = splitRecords(text, byte(delim))
	} else {
		r := csv.NewReader(strings.NewReader(text))
		r.Comma = delim
		r.FieldsPerRecord = -1
		r.LazyQuotes = true
		all, _ = r.ReadAll() // nil when the text does not parse
	}
	if len(all) == 0 {
		return nil, nil, false
	}
	// Drop ragged trailing rows so columns line up.
	width := len(all[0])
	regular := all[:0]
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

// splitRecords is csv.Reader.ReadAll for text that holds no quote
// character, where a record is a line and a field is what lies between
// delimiters: '\n' ends a record, one '\r' before it or before the end of
// the text is dropped, and empty records are skipped. Fields are
// substrings of text, held in one array sized from a count of the
// delimiters, so the cost in allocations does not depend on the table.
func splitRecords(text string, delim byte) [][]string {
	lines := strings.Count(text, "\n") + 1
	cells := make([]string, 0, strings.Count(text, string(rune(delim)))+lines)
	rows := make([][]string, 0, lines)
	for ln, rest, ok := nextLine(text); ok; ln, rest, ok = nextLine(rest) {
		if n := len(ln); n > 0 && ln[n-1] == '\r' {
			ln = ln[:n-1]
		}
		if ln == "" {
			continue
		}
		first := len(cells)
		for i := strings.IndexByte(ln, delim); i >= 0; i = strings.IndexByte(ln, delim) {
			cells, ln = append(cells, ln[:i]), ln[i+1:]
		}
		cells = append(cells, ln)
		rows = append(rows, cells[first:len(cells):len(cells)])
	}
	return rows
}

// sniffDelimiter picks the delimiter with the most consistent per-line
// count among comma, tab, and semicolon.
func sniffDelimiter(text string) rune {
	lines := strings.SplitN(text, "\n", 10)
	best, bestScore := ',', -1
	for _, d := range []rune{',', '\t', ';'} {
		counts := make(map[int]int)
		for _, ln := range lines {
			if strings.TrimSpace(ln) == "" {
				continue
			}
			counts[strings.Count(ln, string(d))]++
		}
		for c, n := range counts {
			if c > 0 && n > bestScore {
				best, bestScore = d, n
			}
		}
	}
	return best
}

// looksLikeHeader reports whether row 0 is non-numeric while later rows
// are mostly numeric.
func looksLikeHeader(rows [][]string) bool {
	if len(rows) < 2 {
		return false
	}
	headerNumeric := numericFraction(rows[0])
	var bodyNumeric float64
	n := 0
	for _, row := range rows[1:] {
		bodyNumeric += numericFraction(row)
		n++
		if n >= 10 {
			break
		}
	}
	bodyNumeric /= float64(n)
	return headerNumeric < 0.5 && bodyNumeric > 0.5
}

func numericFraction(row []string) float64 {
	if len(row) == 0 {
		return 0
	}
	num := 0
	for _, cell := range row {
		if _, err := parseFloat(strings.TrimSpace(cell)); err == nil {
			num++
		}
	}
	return float64(num) / float64(len(row))
}

// Extract implements Extractor.
func (t *Tabular) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	var allCols Columns
	totalRows := 0
	tables := 0
	paths := sortedKeys(files)
	for _, p := range paths {
		header, rows, ok := parseTable(files[p])
		if !ok {
			continue
		}
		tables++
		totalRows += len(rows)
		// One value buffer and one distinct-set, sized for the rows there
		// are, serve every column.
		vals := make([]float64, 0, len(rows))
		distinct := make(map[string]struct{}, len(rows))
		for c, name := range header {
			stats := ColumnStats{Name: name}
			vals = vals[:0]
			clear(distinct)
			for _, row := range rows {
				cell := strings.TrimSpace(row[c])
				// -999, -9999 and nan are the only markers that parse, so
				// any other number is not a null.
				v, err := parseFloat(cell)
				if err != nil || v == -999 || v == -9999 || v != v {
					if _, null := nullMarker(cell); null {
						stats.Nulls++
						continue
					}
				}
				stats.Count++
				distinct[cell] = struct{}{}
				if err == nil {
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

func summarize(vals []float64) (mean, min, max, stddev float64) {
	if len(vals) == 0 {
		return 0, 0, 0, 0
	}
	min, max = vals[0], vals[0]
	var sum float64
	for _, v := range vals {
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	mean = sum / float64(len(vals))
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	stddev = math.Sqrt(ss / float64(len(vals)))
	return mean, min, max, stddev
}

// NullValue determines null-value prevalence in tabular data: which
// columns contain missing data, under which markers, and at what rate.
type NullValue struct{}

// NewNullValue returns the null-value extractor.
func NewNullValue() *NullValue { return &NullValue{} }

// Name implements Extractor.
func (n *NullValue) Name() string { return "nullvalue" }

// Version implements Versioner for the result cache key.
func (n *NullValue) Version() string { return "1" }

// Container implements Extractor.
func (n *NullValue) Container() string { return "xtract-tabular" }

// Applies implements Extractor: same inputs as tabular.
func (n *NullValue) Applies(info store.FileInfo) bool {
	return (&Tabular{}).Applies(info)
}

// Extract implements Extractor.
func (n *NullValue) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	totalCells, nullCells := 0, 0
	markerCounts := make(map[string]int)
	colNulls := make(map[string]int)
	parsedAny := false
	for _, data := range files {
		header, rows, ok := parseTable(data)
		if !ok {
			continue
		}
		parsedAny = true
		for _, row := range rows {
			for c, cell := range row {
				totalCells++
				if marker, null := nullMarker(strings.TrimSpace(cell)); null {
					nullCells++
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
