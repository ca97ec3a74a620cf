package extractors

import (
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"xtract/internal/family"
	"xtract/internal/store"
)

// vaspArtifacts are the canonical VASP calculation artifacts MaterialsIO
// groups together.
var vaspArtifacts = [...]string{"INCAR", "POSCAR", "OUTCAR", "CONTCAR", "KPOINTS", "POTCAR"}

// VASPArtifact returns the VASP artifact a file name is, compared as
// strings.ToUpper(name) — "INCAR" for "incar" — or "" for any other
// name. An ASCII name is compared in place, so that the crawl classifies
// a listing without building a string; any other is upper-cased first,
// as that maps some non-ASCII letters to ASCII ones ("ıncar" is "INCAR").
func VASPArtifact(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] >= utf8.RuneSelf {
			name = strings.ToUpper(name)
			break
		}
	}
next:
	for _, a := range vaspArtifacts {
		if len(name) != len(a) {
			continue
		}
		for i := 0; i < len(a); i++ {
			if c := name[i]; c != a[i] && c-('a'-'A') != a[i] {
				continue next
			}
		}
		return a
	}
	return ""
}

// isMaterialsInfo reports whether crawl metadata marks a file as a
// materials-science artifact.
func isMaterialsInfo(info store.FileInfo) bool {
	if info.IsDir {
		return false
	}
	if VASPArtifact(info.Name) != "" {
		return true
	}
	switch info.Extension {
	case "cif", "xyz", "vasp", "dft":
		return true
	}
	return false
}

// MatIO wraps the MaterialsIO-style parser set: VASP inputs/outputs,
// CIF crystal structures, XYZ atomistic geometries, and generic DFT
// output logs.
type MatIO struct{}

// NewMatIO returns the MaterialsIO extractor.
func NewMatIO() *MatIO { return &MatIO{} }

// Name implements Extractor.
func (m *MatIO) Name() string { return "matio" }

// Version implements Versioner for the result cache key.
func (m *MatIO) Version() string { return "1" }

// Container implements Extractor.
func (m *MatIO) Container() string { return "xtract-matio" }

// Applies implements Extractor.
func (m *MatIO) Applies(info store.FileInfo) bool { return isMaterialsInfo(info) }

// Extract implements Extractor.
func (m *MatIO) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	md := make(map[string]interface{})
	paths := sortedKeys(files)
	parsed := 0
	for _, p := range paths {
		base := VASPArtifact(baseName(p))
		data := files[p]
		switch {
		case base == "INCAR":
			if params := parseINCAR(data); len(params) > 0 {
				md["incar"] = params
				parsed++
			}
		case base == "POSCAR" || base == "CONTCAR":
			if s, ok := parsePOSCAR(data); ok {
				md["structure"] = s
				parsed++
			}
		case base == "OUTCAR":
			if r, ok := parseOUTCAR(data); ok {
				md["results"] = r
				parsed++
			}
		case strings.HasSuffix(strings.ToLower(p), ".cif"):
			if c, ok := parseCIF(data); ok {
				md["crystal"] = c
				parsed++
			}
		case strings.HasSuffix(strings.ToLower(p), ".xyz"):
			if x, ok := parseXYZ(data); ok {
				md["geometry"] = x
				parsed++
			}
		case strings.HasSuffix(strings.ToLower(p), ".dft"):
			if d, ok := parseDFTLog(data); ok {
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

func baseName(p string) string {
	if i := strings.LastIndex(p, "/"); i >= 0 {
		return p[i+1:]
	}
	return p
}

// parseINCAR reads KEY = VALUE parameter lines.
func parseINCAR(data []byte) map[string]string {
	out := make(map[string]string)
	for ln, rest, ok := nextLine(string(data)); ok; ln, rest, ok = nextLine(rest) {
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

// Structure is the metadata extracted from a POSCAR/CONTCAR file.
type Structure struct {
	Comment     string             `json:"comment"`
	Scale       float64            `json:"scale"`
	Lattice     [3][3]float64      `json:"lattice"`
	Volume      float64            `json:"volume"`
	Species     []string           `json:"species"`
	Counts      []int              `json:"counts"`
	NAtoms      int                `json:"n_atoms"`
	Composition map[string]float64 `json:"composition"`
	Coords      [][3]float64       `json:"-"` // used by the ASE extractor
}

// AppendCanonical implements fastjson.Canonical.
func (s Structure) AppendCanonical(dst []byte) ([]byte, error) {
	m := object(dst)
	m.text("comment", s.Comment)
	m.value("composition", s.Composition)
	m.integers("counts", s.Counts)
	m.matrix("lattice", s.Lattice)
	m.integer("n_atoms", s.NAtoms)
	m.number("scale", s.Scale)
	m.texts("species", s.Species)
	m.number("volume", s.Volume)
	return m.end()
}

// parsePOSCAR reads the VASP structure format: comment, scale factor,
// three lattice vectors, species, counts, coordinate mode, coordinates.
func parsePOSCAR(data []byte) (Structure, bool) {
	lines := nonEmptyLines(string(data))
	if len(lines) < 7 {
		return Structure{}, false
	}
	var s Structure
	s.Comment = strings.TrimSpace(lines[0])
	scale, err := parseFloat(strings.TrimSpace(lines[1]))
	if err != nil {
		return Structure{}, false
	}
	s.Scale = scale
	for i := 0; i < 3; i++ {
		v, ok := parseVec3(lines[2+i])
		if !ok {
			return Structure{}, false
		}
		s.Lattice[i] = v
	}
	s.Volume = math.Abs(det3(s.Lattice)) * scale * scale * scale
	s.Species = appendFields(nil, lines[5])
	var buf [8]string
	for _, c := range appendFields(buf[:0], lines[6]) {
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
	// up to NAtoms coordinate triples. Sized once, by the lines there are
	// and not by the count the file claims.
	s.Coords = make([][3]float64, 0, min(s.NAtoms, max(len(lines)-8, 0)))
	for i := 8; i < len(lines) && len(s.Coords) < s.NAtoms; i++ {
		if v, ok := parseVec3(lines[i]); ok {
			s.Coords = append(s.Coords, v)
		}
	}
	return s, true
}

func nonEmptyLines(text string) []string {
	out := make([]string, 0, strings.Count(text, "\n")+1)
	for ln, rest, ok := nextLine(text); ok; ln, rest, ok = nextLine(rest) {
		if strings.TrimSpace(ln) != "" {
			out = append(out, ln)
		}
	}
	return out
}

func parseVec3(line string) ([3]float64, bool) {
	var buf [8]string
	fields := appendFields(buf[:0], line)
	if len(fields) < 3 {
		return [3]float64{}, false
	}
	var v [3]float64
	for i := 0; i < 3; i++ {
		f, err := parseFloat(fields[i])
		if err != nil {
			return [3]float64{}, false
		}
		v[i] = f
	}
	return v, true
}

func det3(m [3][3]float64) float64 {
	return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
}

// VASPResults is the metadata extracted from an OUTCAR file.
type VASPResults struct {
	FinalEnergyEV float64 `json:"final_energy_ev"`
	EFermi        float64 `json:"e_fermi"`
	IonicSteps    int     `json:"ionic_steps"`
	Converged     bool    `json:"converged"`
}

// AppendCanonical implements fastjson.Canonical.
func (r VASPResults) AppendCanonical(dst []byte) ([]byte, error) {
	m := object(dst)
	m.flag("converged", r.Converged)
	m.number("e_fermi", r.EFermi)
	m.number("final_energy_ev", r.FinalEnergyEV)
	m.integer("ionic_steps", r.IonicSteps)
	return m.end()
}

// parseOUTCAR scans VASP output for the total energy, Fermi level, and
// ionic step count.
func parseOUTCAR(data []byte) (VASPResults, bool) {
	var r VASPResults
	found := false
	var buf [8]string
	for ln, rest, ok := nextLine(string(data)); ok; ln, rest, ok = nextLine(rest) {
		switch {
		case strings.Contains(ln, "TOTEN"):
			if v, ok := lastFloatBefore(ln, "eV"); ok {
				r.FinalEnergyEV = v
				r.IonicSteps++
				found = true
			}
		case strings.Contains(ln, "E-fermi"):
			// The value follows a colon; a line without one is not a
			// Fermi-level line.
			_, value, _ := strings.Cut(ln, ":")
			if fields := appendFields(buf[:0], value); len(fields) > 0 {
				if v, err := parseFloat(fields[0]); err == nil {
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

// lastFloatBefore parses the last float token preceding marker in line.
func lastFloatBefore(line, marker string) (float64, bool) {
	idx := strings.LastIndex(line, marker)
	if idx < 0 {
		idx = len(line)
	}
	var buf [8]string
	fields := appendFields(buf[:0], line[:idx])
	for i := len(fields) - 1; i >= 0; i-- {
		if v, err := parseFloat(fields[i]); err == nil {
			return v, true
		}
	}
	return 0, false
}

// Crystal is the metadata extracted from a CIF file.
type Crystal struct {
	Formula string             `json:"formula"`
	CellA   float64            `json:"cell_a"`
	CellB   float64            `json:"cell_b"`
	CellC   float64            `json:"cell_c"`
	Angles  [3]float64         `json:"angles"`
	Tags    map[string]string  `json:"tags,omitempty"`
	Lengths map[string]float64 `json:"-"`
}

// AppendCanonical implements fastjson.Canonical.
func (c Crystal) AppendCanonical(dst []byte) ([]byte, error) {
	m := object(dst)
	m.vector("angles", c.Angles)
	m.number("cell_a", c.CellA)
	m.number("cell_b", c.CellB)
	m.number("cell_c", c.CellC)
	m.text("formula", c.Formula)
	if len(c.Tags) > 0 {
		m.value("tags", c.Tags)
	}
	return m.end()
}

// parseCIF reads the "_key value" lines of a CIF file.
func parseCIF(data []byte) (Crystal, bool) {
	var c Crystal
	c.Tags = make(map[string]string)
	found := false
	for ln, rest, ok := nextLine(string(data)); ok; ln, rest, ok = nextLine(rest) {
		ln = strings.TrimSpace(ln)
		if !strings.HasPrefix(ln, "_") {
			continue
		}
		key, val, spaced := strings.Cut(ln, " ")
		if !spaced {
			continue
		}
		val = strings.Trim(strings.TrimSpace(val), "'\"")
		switch key {
		case "_cell_length_a":
			c.CellA, _ = parseFloat(val)
			found = true
		case "_cell_length_b":
			c.CellB, _ = parseFloat(val)
		case "_cell_length_c":
			c.CellC, _ = parseFloat(val)
		case "_cell_angle_alpha":
			c.Angles[0], _ = parseFloat(val)
		case "_cell_angle_beta":
			c.Angles[1], _ = parseFloat(val)
		case "_cell_angle_gamma":
			c.Angles[2], _ = parseFloat(val)
		case "_chemical_formula_sum":
			c.Formula = val
			found = true
		default:
			c.Tags[key] = val
		}
	}
	return c, found
}

// Geometry is the metadata extracted from an XYZ file.
type Geometry struct {
	NAtoms  int            `json:"n_atoms"`
	Comment string         `json:"comment"`
	Symbols map[string]int `json:"symbols"`
	Coords  [][3]float64   `json:"-"`
}

// AppendCanonical implements fastjson.Canonical.
func (g Geometry) AppendCanonical(dst []byte) ([]byte, error) {
	m := object(dst)
	m.text("comment", g.Comment)
	m.integer("n_atoms", g.NAtoms)
	m.value("symbols", g.Symbols)
	return m.end()
}

// parseXYZ reads the XYZ atomistic format: atom count, comment, then
// "Symbol x y z" lines.
func parseXYZ(data []byte) (Geometry, bool) {
	count, rest, _ := nextLine(string(data))
	comment, rest, ok := nextLine(rest)
	n, err := strconv.Atoi(strings.TrimSpace(count))
	if !ok || err != nil || n <= 0 {
		return Geometry{}, false
	}
	g := Geometry{NAtoms: n, Comment: strings.TrimSpace(comment), Symbols: make(map[string]int)}
	g.Coords = make([][3]float64, 0, min(n, strings.Count(rest, "\n")+1))
	var buf [8]string
	for ln, rest, ok := nextLine(rest); ok && len(g.Coords) < n; ln, rest, ok = nextLine(rest) {
		fields := appendFields(buf[:0], ln)
		if len(fields) < 4 {
			continue
		}
		x, e1 := parseFloat(fields[1])
		y, e2 := parseFloat(fields[2])
		z, e3 := parseFloat(fields[3])
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

// parseDFTLog scans a generic DFT output log.
func parseDFTLog(data []byte) (map[string]interface{}, bool) {
	var energy float64
	var scfSteps int
	converged := false
	found := false
	for ln, rest, ok := nextLine(string(data)); ok; ln, rest, ok = nextLine(rest) {
		switch {
		case containsLower(ln, "total energy"):
			if v, ok := lastFloatBefore(ln, "Ry"); ok {
				energy = v
				found = true
			}
		case containsLower(ln, "scf cycle"):
			scfSteps++
		case containsLower(ln, "convergence achieved"):
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

// ASE is the long-duration materials extractor dominating the MDF run's
// tail in Figure 8. It computes an O(n²) radial distribution function
// over atomic coordinates — genuinely compute-intensive for large
// structures, standing in for the ASE-based analysis in MaterialsIO.
type ASE struct {
	// Bins is the RDF histogram resolution.
	Bins int
	// RMax is the histogram range in the structure's length units.
	RMax float64
}

// NewASE returns the ASE extractor with default histogram settings.
func NewASE() *ASE { return &ASE{Bins: 64, RMax: 10} }

// Name implements Extractor.
func (a *ASE) Name() string { return "ase" }

// Version implements Versioner for the result cache key.
func (a *ASE) Version() string { return "1" }

// Container implements Extractor.
func (a *ASE) Container() string { return "xtract-matio" }

// Applies implements Extractor: structures only.
func (a *ASE) Applies(info store.FileInfo) bool {
	if info.IsDir {
		return false
	}
	art := VASPArtifact(info.Name)
	return art == "POSCAR" || art == "CONTCAR" || info.Extension == "xyz"
}

// Extract implements Extractor.
func (a *ASE) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	paths := sortedKeys(files)
	var coords [][3]float64
	for _, p := range paths {
		if art := VASPArtifact(baseName(p)); art == "POSCAR" || art == "CONTCAR" {
			if s, ok := parsePOSCAR(files[p]); ok {
				coords = append(coords, s.Coords...)
			}
		} else if strings.HasSuffix(strings.ToLower(p), ".xyz") {
			if x, ok := parseXYZ(files[p]); ok {
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

// radialDistribution histograms all pairwise distances and returns the
// histogram plus mean nearest-neighbor distance. Each pair is visited
// once; d(i,j) serves both ends' nearest-neighbor search.
func (a *ASE) radialDistribution(coords [][3]float64) ([]int, float64) {
	bins := make([]int, a.Bins)
	binWidth := a.RMax / float64(a.Bins)
	nearest := make([]float64, len(coords))
	for i := range nearest {
		nearest[i] = math.Inf(1)
	}
	for i := range coords {
		for j := i + 1; j < len(coords); j++ {
			dx := coords[i][0] - coords[j][0]
			dy := coords[i][1] - coords[j][1]
			dz := coords[i][2] - coords[j][2]
			d := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if d < nearest[i] {
				nearest[i] = d
			}
			if d < nearest[j] {
				nearest[j] = d
			}
			if b := int(d / binWidth); b >= 0 && b < a.Bins {
				bins[b]++
			}
		}
	}
	nnSum := 0.0
	for _, d := range nearest {
		if !math.IsInf(d, 1) {
			nnSum += d
		}
	}
	meanNN := 0.0
	if len(coords) > 1 {
		meanNN = nnSum / float64(len(coords))
	}
	return bins, meanNN
}
