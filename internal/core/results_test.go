package core

import (
	"bytes"
	"strconv"
	"testing"

	"xtract/internal/fastjson"
	"xtract/internal/scheduler"
)

// FuzzAppendResultsMatchesRawMap holds appendResults, which compares and
// writes each group/extractor key from its two parts, to
// fastjson.AppendRawMap of the map keyed by the joined strings: the same
// bytes, keys in the same order. Three done steps and one still in flight
// (which the document leaves out) are named by the fuzzed strings; inputs
// whose joined keys collide are skipped, since a map holds one of them.
// The seed corpus runs with the package's tests; to search further:
//
//	go test -run '^$' -fuzz FuzzAppendResultsMatchesRawMap -fuzztime 30s ./internal/core
func FuzzAppendResultsMatchesRawMap(f *testing.F) {
	// Bytes either side of '/' ('-', '.', '0'), a second '/' on either
	// side of the join, names JSON escapes, invalid UTF-8 and prefixes.
	f.Add("a-b", "x", "a", "x", "a.b", "x")
	f.Add("a", "x", "a", "w", "a0", "x")
	f.Add("a/b", "c", "a", "b/c/d", "a/", "c")
	f.Add("/d#f0", "keyword", "/d#f0", "tabular", "/d#f00", "keyword")
	f.Add("g\"1", "<ext>", "g\\1", "e&", "g ", "x\x00y")
	f.Add("\xe2\x82", "x", "\xe2\x82\xac", "x", "\xff", "\xfe/")
	f.Add("", "", "", "x", "x", "")
	f.Add("abc", "d", "ab", "cd", "abcd", "")
	f.Fuzz(func(t *testing.T, g1, e1, g2, e2, g3, e3 string) {
		st := &famState{}
		ref := make(map[string]fastjson.Raw)
		for i, s := range []scheduler.Step{{GroupID: g1, Extractor: e1}, {GroupID: g2, Extractor: e2}, {GroupID: g3, Extractor: e3}} {
			key := s.GroupID + "/" + s.Extractor
			if _, dup := ref[key]; dup {
				t.Skip("joined keys collide")
			}
			var md fastjson.Raw // the first step has none: null
			if i > 0 {
				md = fastjson.Raw(`{"n":` + strconv.Itoa(i) + `}`)
			}
			ref[key] = md
			st.steps = append(st.steps, stepState{step: s, phase: stepDone, md: md})
		}
		st.steps = append(st.steps, stepState{step: scheduler.Step{GroupID: g1, Extractor: e1 + "+"}, phase: stepInflight})
		got, want := st.appendResults(nil), fastjson.AppendRawMap(nil, ref)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendResults wrote\n%s\nAppendRawMap of the joined keys writes\n%s", got, want)
		}
	})
}
