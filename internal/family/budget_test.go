package family

import (
	"math/rand"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestPackingVASPGroupsStaysInItsBudget: a VASP directory's groups as the
// matio grouper forms them — the calculation, the structure analysis
// sharing its POSCAR, and a sidecar of its own — take the graph path, and
// once a Packer's scratch has grown they cost the three arrays the
// families hold: the families, their files and their groups.
func TestPackingVASPGroupsStaysInItsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	groups := []Group{
		{ID: "/c#vasp", Files: []string{"/c/INCAR", "/c/OUTCAR", "/c/POSCAR"}, Extractor: "matio"},
		{ID: "/c#ase", Files: []string{"/c/POSCAR"}, Extractor: "ase"},
		{ID: "/c#f0", Files: []string{"/c/run.yaml"}, Extractor: "semistructured"},
	}
	var p Packer
	rng := rand.New(rand.NewSource(1))
	var fams []Family
	allocs := testing.AllocsPerRun(20, func() { fams = p.Pack(groups, 16, 1, rng) })
	if len(fams) != 2 || len(fams[0].Groups) != 2 {
		t.Fatalf("families %+v, want the calculation with its structure analysis, and the sidecar", fams)
	}
	t.Logf("%.0f allocations to pack a VASP directory", allocs)
	const budget = 3 // 33 before the Packer
	if allocs > budget {
		t.Fatalf("packing a VASP directory allocated %.0f times, budget %d", allocs, budget)
	}
}
