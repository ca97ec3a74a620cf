package extractors

import (
	"strings"
	"testing"

	"xtract/internal/store"
)

// refVASPArtifact is the definition VASPArtifact replaced: upper-case the
// name, then look it up in the set of artifact names.
func refVASPArtifact(name string) string {
	up := strings.ToUpper(name)
	switch up {
	case "INCAR", "POSCAR", "OUTCAR", "CONTCAR", "KPOINTS", "POTCAR":
		return up
	}
	return ""
}

// FuzzVASPArtifactMatchesToUpper holds the in-place comparison to
// strings.ToUpper for any name, non-ASCII ones included.
func FuzzVASPArtifactMatchesToUpper(f *testing.F) {
	for _, s := range []string{"INCAR", "incar", "PosCar", "CONTCAR", "kpoints", "potcar", "OUTCAR ",
		"ıncar", "poſcar", "ＩＮＣＡＲ", "INCAR\x00", "\xffINCAR", "notes.txt", "", "INCA", "KPOINTSS", "Kpoınts"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		if got, want := VASPArtifact(name), refVASPArtifact(name); got != want {
			t.Fatalf("VASPArtifact(%q) = %q, strings.ToUpper gives %q", name, got, want)
		}
	})
}

// TestCandidateAllocatesNothing: choosing a group's first extractor from
// the default library builds no string, whatever the case of the name.
func TestCandidateAllocatesNothing(t *testing.T) {
	lib := DefaultLibrary()
	var listing []store.FileInfo
	for _, n := range []string{"INCAR", "Poscar", "outcar", "ContCar", "run.yaml", "structure.cif", "meta.json",
		"results.csv", "log.xml", "notes.txt", "micrograph.png", "calc.py", "README", "data.h5", "x.xyz"} {
		ext := ""
		if i := strings.LastIndexByte(n, '.'); i >= 0 {
			ext = n[i+1:]
		}
		listing = append(listing, store.FileInfo{Path: "/d/" + n, Name: n, Extension: ext, Size: 10})
	}
	var named int
	allocs := testing.AllocsPerRun(20, func() {
		named = 0
		for _, fi := range listing {
			if lib.Candidate(fi) != "" {
				named++
			}
		}
	})
	if named != len(listing) {
		t.Fatalf("%d of %d files have a candidate", named, len(listing))
	}
	if allocs != 0 {
		t.Fatalf("Candidate over a %d-file listing cost %v allocations, want 0", len(listing), allocs)
	}
}
