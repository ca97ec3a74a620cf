package extractors

import (
	"strings"
	"testing"

	"xtract/internal/family"
)

// raceEnabled is set by race_test.go when the race detector is on: it
// changes allocation counts, so the budget rows skip under it.
var raceEnabled bool

// TestIsNumericAllocatesNothing: the values of the corpus's YAML
// sidecars, numbers and the words beside them, are typed without an
// allocation.
func TestIsNumericAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, s := range []string{"42", "731", "12.345", "-10.5", "1e5", "2019-01-01", "nan", "+Inf", "1p4", "0x1p4",
		"run 731", "true", "false", "user7", "perovskite", "VASP", "e5", "-", ".", "12abc"} {
		if n := testing.AllocsPerRun(20, func() { _ = isNumeric(s) }); n != 0 {
			t.Errorf("isNumeric(%q) cost %v allocations", s, n)
		}
	}
}

// TestKeywordCountStaysInItsBudget: counting a free-text file's tokens
// costs its lower-cased copy and the count map's growth, not an
// allocation per token: twice the distinct tokens add only the map's
// growth, and the file of 200 costs a fixed number besides.
func TestKeywordCountStaysInItsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const growth, at200 = 4, 18
	k := NewKeyword(15)
	measure := func(distinct int) float64 {
		var b strings.Builder
		for i := 0; i < distinct; i++ {
			// Distinct words of five letters or more, twice each, in
			// mixed case: "Wordaaa wordaaa the Wordbaa wordbaa the ...".
			w := "word" + string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i/676))
			b.WriteString(strings.ToUpper(w[:1]) + w[1:] + " " + w + " the\n")
		}
		files := map[string][]byte{"/notes.txt": []byte(b.String())}
		g := &family.Group{ID: "g", Files: []string{"/notes.txt"}}
		return testing.AllocsPerRun(10, func() {
			md, err := k.Extract(g, files)
			if err != nil || md["distinct"] != distinct {
				t.Fatalf("extracted %v, %v; want %d distinct tokens", md, err, distinct)
			}
		})
	}
	a200, a400 := measure(200), measure(400)
	t.Logf("%.0f allocations for 200 distinct tokens, %.0f for 400", a200, a400)
	if a400-a200 > growth {
		t.Errorf("200 more distinct tokens cost %.0f more allocations, budget %d (the map's growth)", a400-a200, growth)
	}
	if a200 > at200 {
		t.Errorf("a file of 200 distinct tokens cost %.0f allocations, budget %d", a200, at200)
	}
}
