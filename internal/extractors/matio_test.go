package extractors

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"xtract/internal/family"
	"xtract/internal/store"
)

const testPOSCAR = `Si8 diamond cubic
1.0
5.43 0.00 0.00
0.00 5.43 0.00
0.00 0.00 5.43
Si
8
Direct
0.00 0.00 0.00
0.50 0.50 0.00
0.50 0.00 0.50
0.00 0.50 0.50
0.25 0.25 0.25
0.75 0.75 0.25
0.75 0.25 0.75
0.25 0.75 0.75
`

const testINCAR = `# relaxation run
ENCUT = 520
ISMEAR = 0
SIGMA = 0.05
IBRION = 2
`

const testOUTCAR = `  some preamble
  free  energy   TOTEN  =       -43.374 eV
  E-fermi :   5.9711     XC(G=0): -10.1234
  free  energy   TOTEN  =       -43.402 eV
  reached required accuracy - stopping structural energy minimisation
`

const testCIF = `data_Si
_cell_length_a 5.431
_cell_length_b 5.431
_cell_length_c 5.431
_cell_angle_alpha 90.0
_cell_angle_beta 90.0
_cell_angle_gamma 90.0
_chemical_formula_sum 'Si8'
_symmetry_space_group_name_H-M 'F d -3 m'
`

const testXYZ = `3
water molecule
O 0.000 0.000 0.117
H 0.000 0.757 -0.467
H 0.000 -0.757 -0.467
`

func TestParsePOSCAR(t *testing.T) {
	s, ok := parsePOSCAR([]byte(testPOSCAR))
	if !ok {
		t.Fatal("parse failed")
	}
	if s.NAtoms != 8 || s.Species[0] != "Si" {
		t.Fatalf("structure = %+v", s)
	}
	wantVol := 5.43 * 5.43 * 5.43
	if math.Abs(s.Volume-wantVol) > 1e-6 {
		t.Fatalf("volume = %v, want %v", s.Volume, wantVol)
	}
	if s.Composition["Si"] != 1.0 {
		t.Fatalf("composition = %v", s.Composition)
	}
	if len(s.Coords) != 8 {
		t.Fatalf("coords = %d", len(s.Coords))
	}
}

func TestParsePOSCARMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"title\nnot-a-number\n",
		"title\n1.0\n1 0 0\n0 1 0\n0 0 1\nSi Ge\n8\nDirect\n0 0 0\n",
	} {
		if _, ok := parsePOSCAR([]byte(bad)); ok {
			t.Errorf("parsePOSCAR accepted %q", bad)
		}
	}
}

func TestParseINCAR(t *testing.T) {
	params := parseINCAR([]byte(testINCAR))
	if params["ENCUT"] != "520" || params["IBRION"] != "2" {
		t.Fatalf("params = %v", params)
	}
	if _, ok := params["#"]; ok {
		t.Fatal("comment parsed as parameter")
	}
}

func TestParseOUTCAR(t *testing.T) {
	r, ok := parseOUTCAR([]byte(testOUTCAR))
	if !ok {
		t.Fatal("parse failed")
	}
	if math.Abs(r.FinalEnergyEV+43.402) > 1e-9 {
		t.Fatalf("energy = %v", r.FinalEnergyEV)
	}
	if r.IonicSteps != 2 || !r.Converged {
		t.Fatalf("results = %+v", r)
	}
	if math.Abs(r.EFermi-5.9711) > 1e-9 {
		t.Fatalf("efermi = %v", r.EFermi)
	}
}

func TestParseCIF(t *testing.T) {
	c, ok := parseCIF([]byte(testCIF))
	if !ok {
		t.Fatal("parse failed")
	}
	if c.Formula != "Si8" || c.CellA != 5.431 || c.Angles[2] != 90.0 {
		t.Fatalf("crystal = %+v", c)
	}
	if c.Tags["_symmetry_space_group_name_H-M"] == "" {
		t.Fatal("extra tags not captured")
	}
}

func TestParseXYZ(t *testing.T) {
	g, ok := parseXYZ([]byte(testXYZ))
	if !ok {
		t.Fatal("parse failed")
	}
	if g.NAtoms != 3 || g.Symbols["H"] != 2 || g.Symbols["O"] != 1 {
		t.Fatalf("geometry = %+v", g)
	}
	if g.Comment != "water molecule" {
		t.Fatalf("comment = %q", g.Comment)
	}
}

func TestMatIOGroupExtract(t *testing.T) {
	m := NewMatIO()
	md, err := m.Extract(&family.Group{ID: "vasp-run"}, map[string][]byte{
		"/run/INCAR":  []byte(testINCAR),
		"/run/POSCAR": []byte(testPOSCAR),
		"/run/OUTCAR": []byte(testOUTCAR),
	})
	if err != nil {
		t.Fatal(err)
	}
	if md["parsed_files"].(int) != 3 {
		t.Fatalf("parsed = %v", md["parsed_files"])
	}
	if _, ok := md["incar"]; !ok {
		t.Fatal("missing incar metadata")
	}
	if _, ok := md["structure"]; !ok {
		t.Fatal("missing structure metadata")
	}
	if _, ok := md["results"]; !ok {
		t.Fatal("missing results metadata")
	}
}

func TestMatIOCIFAndXYZ(t *testing.T) {
	m := NewMatIO()
	md, err := m.Extract(&family.Group{}, map[string][]byte{
		"/c.cif": []byte(testCIF),
		"/m.xyz": []byte(testXYZ),
	})
	if err != nil {
		t.Fatal(err)
	}
	if md["parsed_files"].(int) != 2 {
		t.Fatalf("parsed = %v", md)
	}
}

func TestMatIONotApplicable(t *testing.T) {
	m := NewMatIO()
	if _, err := m.Extract(&family.Group{}, map[string][]byte{
		"/junk.bin": []byte("garbage"),
	}); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("err = %v", err)
	}
}

func TestMatIOApplies(t *testing.T) {
	m := NewMatIO()
	if !m.Applies(store.FileInfo{Name: "POSCAR"}) || !m.Applies(store.FileInfo{Name: "incar"}) {
		t.Fatal("VASP names should apply")
	}
	if !m.Applies(store.FileInfo{Name: "x.cif", Extension: "cif"}) {
		t.Fatal("cif should apply")
	}
	if m.Applies(store.FileInfo{Name: "notes.txt", Extension: "txt"}) {
		t.Fatal("txt should not apply")
	}
}

func TestASEExtract(t *testing.T) {
	a := NewASE()
	md, err := a.Extract(&family.Group{}, map[string][]byte{"/run/POSCAR": []byte(testPOSCAR)})
	if err != nil {
		t.Fatal(err)
	}
	if md["n_atoms"].(int) != 8 {
		t.Fatalf("n_atoms = %v", md["n_atoms"])
	}
	rdf := md["rdf"].([]int)
	total := 0
	for _, c := range rdf {
		total += c
	}
	if total != 8*7/2 {
		t.Fatalf("rdf pairs = %d, want 28", total)
	}
	if md["mean_nn_distance"].(float64) <= 0 {
		t.Fatal("mean nn distance should be positive")
	}
}

// radialDistributionAllPairs is the loop radialDistribution replaced: it
// computes every distance twice, once from each end.
func radialDistributionAllPairs(a *ASE, coords [][3]float64) ([]int, float64) {
	bins := make([]int, a.Bins)
	binWidth := a.RMax / float64(a.Bins)
	nnSum := 0.0
	for i := range coords {
		nearest := math.Inf(1)
		for j := range coords {
			if i == j {
				continue
			}
			dx := coords[i][0] - coords[j][0]
			dy := coords[i][1] - coords[j][1]
			dz := coords[i][2] - coords[j][2]
			d := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if d < nearest {
				nearest = d
			}
			if j > i {
				if b := int(d / binWidth); b >= 0 && b < a.Bins {
					bins[b]++
				}
			}
		}
		if !math.IsInf(nearest, 1) {
			nnSum += nearest
		}
	}
	meanNN := 0.0
	if len(coords) > 1 {
		meanNN = nnSum / float64(len(coords))
	}
	return bins, meanNN
}

// TestRadialDistributionMatchesAllPairsLoop holds the one-visit-per-pair
// loop to the old one bit for bit (d(i,j) == d(j,i) exactly), so cached
// ASE results stay valid and the extractor's Version does not move.
func TestRadialDistributionMatchesAllPairsLoop(t *testing.T) {
	a := NewASE()
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 600} {
		coords := make([][3]float64, n)
		for i := range coords {
			for k := range coords[i] {
				coords[i][k] = rng.Float64() * 12
			}
		}
		if n == 3 {
			coords[2] = coords[0] // a zero distance and a tie
		}
		wantBins, wantNN := radialDistributionAllPairs(a, coords)
		gotBins, gotNN := a.radialDistribution(coords)
		if !reflect.DeepEqual(gotBins, wantBins) {
			t.Errorf("n=%d: rdf differs", n)
		}
		if math.Float64bits(gotNN) != math.Float64bits(wantNN) {
			t.Errorf("n=%d: mean_nn_distance = %v, want %v", n, gotNN, wantNN)
		}
	}
}

func TestASEFromXYZ(t *testing.T) {
	a := NewASE()
	md, err := a.Extract(&family.Group{}, map[string][]byte{"/w.xyz": []byte(testXYZ)})
	if err != nil {
		t.Fatal(err)
	}
	if md["n_atoms"].(int) != 3 {
		t.Fatalf("n_atoms = %v", md["n_atoms"])
	}
}

func TestASENotApplicable(t *testing.T) {
	a := NewASE()
	if _, err := a.Extract(&family.Group{}, map[string][]byte{
		"/INCAR": []byte(testINCAR),
	}); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("err = %v", err)
	}
}

func TestParseDFTLog(t *testing.T) {
	log := `Program PWSCF starting
  SCF cycle 1
  SCF cycle 2
  total energy = -93.45 Ry
  convergence achieved
`
	md, ok := parseDFTLog([]byte(log))
	if !ok {
		t.Fatal("parse failed")
	}
	if md["scf_steps"].(int) != 2 || md["converged"].(bool) != true {
		t.Fatalf("md = %v", md)
	}
	if md["total_energy"].(float64) != -93.45 {
		t.Fatalf("energy = %v", md["total_energy"])
	}
}

func TestDet3(t *testing.T) {
	identity := [3][3]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	if det3(identity) != 1 {
		t.Fatal("det(I) != 1")
	}
	singular := [3][3]float64{{1, 2, 3}, {2, 4, 6}, {1, 1, 1}}
	if det3(singular) != 0 {
		t.Fatal("det of singular matrix != 0")
	}
}
