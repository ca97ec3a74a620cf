// Package quality scores the utility of extracted metadata records — the
// paper's future work ("we will also evaluate the utility of extracted
// metadata, so that we can explore utility-cost tradeoffs"). The score
// combines completeness (did every planned extractor succeed), richness
// (how much structured information was produced), and coverage (how many
// of the family's files gained metadata).
package quality

import (
	"math"

	"xtract/internal/fastjson"
	"xtract/internal/validate"
)

// Score is the utility assessment of one metadata record.
type Score struct {
	// Completeness is successful steps / attempted steps, in [0,1].
	Completeness float64
	// Richness grows with the volume and depth of extracted fields,
	// saturating toward 1 (log-scaled field count).
	Richness float64
	// Coverage is the fraction of the record's files referenced by at
	// least one metadata block, in [0,1].
	Coverage float64
	// Overall is the weighted combination used for ranking.
	Overall float64
	// Fields is the raw extracted field count.
	Fields int
}

// Weights tunes the overall combination; zero value means equal thirds.
type Weights struct {
	Completeness, Richness, Coverage float64
}

// DefaultWeights weighs completeness highest: absent metadata is worse
// than shallow metadata for findability.
func DefaultWeights() Weights {
	return Weights{Completeness: 0.45, Richness: 0.35, Coverage: 0.20}
}

// Evaluate scores one record.
func Evaluate(rec validate.Record, w Weights) Score {
	if w.Completeness == 0 && w.Richness == 0 && w.Coverage == 0 {
		w = Weights{Completeness: 1.0 / 3, Richness: 1.0 / 3, Coverage: 1.0 / 3}
	}
	var s Score

	attempted, succeeded := 0, 0
	for _, step := range rec.Extracted {
		attempted++
		if step.OK {
			succeeded++
		}
	}
	if attempted == 0 {
		// No recorded steps: fall back to whether metadata exists at all.
		if len(rec.Metadata) > 0 {
			s.Completeness = 1
		}
	} else {
		s.Completeness = float64(succeeded) / float64(attempted)
	}

	// The record carries each block as encoded bytes; scoring is the one
	// consumer that needs the values, so it decodes them here, on use.
	blocks := make([]interface{}, 0, len(rec.Metadata))
	for _, raw := range rec.Metadata {
		if !fastjson.IsObject(raw) {
			continue // a step that produced no metadata
		}
		if md, err := fastjson.DecodeValue(raw); err == nil {
			blocks = append(blocks, md)
			s.Fields += countFields(md, 0)
		}
	}
	// log saturation: ~0.5 at 10 fields, ~0.8 at 50, →1 beyond.
	s.Richness = 1 - 1/math.Log(math.E+float64(s.Fields)/4)

	if len(rec.Files) > 0 {
		covered := 0
		for _, f := range rec.Files {
			if fileMentioned(blocks, f) {
				covered++
			}
		}
		// Group-level metadata covers all files when nothing is keyed per
		// file; treat a non-empty record as full coverage in that case.
		if covered == 0 && len(rec.Metadata) > 0 {
			covered = len(rec.Files)
		}
		s.Coverage = float64(covered) / float64(len(rec.Files))
	}

	s.Overall = w.Completeness*s.Completeness + w.Richness*s.Richness + w.Coverage*s.Coverage
	return s
}

// countFields counts leaf values in a metadata dictionary up to depth 6.
func countFields(v interface{}, depth int) int {
	if depth > 6 {
		return 1
	}
	switch t := v.(type) {
	case map[string]interface{}:
		n := 0
		for _, child := range t {
			n += countFields(child, depth+1)
		}
		return n
	case []interface{}:
		n := 0
		for _, child := range t {
			n += countFields(child, depth+1)
		}
		if n == 0 {
			return 1
		}
		return n
	default:
		return 1
	}
}

// fileMentioned reports whether any metadata block references the file
// path as a key.
func fileMentioned(blocks []interface{}, file string) bool {
	for _, md := range blocks {
		if mentioned(md, file, 0) {
			return true
		}
	}
	return false
}

func mentioned(v interface{}, file string, depth int) bool {
	if depth > 4 {
		return false
	}
	switch t := v.(type) {
	case map[string]interface{}:
		for k, child := range t {
			if k == file {
				return true
			}
			if mentioned(child, file, depth+1) {
				return true
			}
		}
	}
	return false
}

// Rank evaluates a batch and returns indices sorted by descending
// overall utility.
func Rank(recs []validate.Record, w Weights) []int {
	type scored struct {
		idx   int
		score float64
	}
	all := make([]scored, len(recs))
	for i, rec := range recs {
		all[i] = scored{idx: i, score: Evaluate(rec, w).Overall}
	}
	out := make([]int, len(recs))
	for i := range all {
		out[i] = all[i].idx
	}
	// Stable selection by score descending.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].score > all[j-1].score; j-- {
			all[j], all[j-1] = all[j-1], all[j]
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
