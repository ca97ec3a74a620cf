package quality

import (
	"testing"
	"testing/quick"
	"time"

	"xtract/internal/fastjson"
	"xtract/internal/validate"
)

// encoded renders each step's dictionary the way the worker does.
func encoded(blocks map[string]map[string]interface{}) map[string]fastjson.Raw {
	out := make(map[string]fastjson.Raw, len(blocks))
	for k, md := range blocks {
		raw, err := fastjson.AppendCanonical(nil, md)
		if err != nil {
			panic(err)
		}
		out[k] = raw
	}
	return out
}

func richRecord() validate.Record {
	return validate.Record{
		FamilyID: "f1",
		Files:    []string{"/a.csv", "/b.txt"},
		Metadata: encoded(map[string]map[string]interface{}{
			"g1/tabular": {
				"columns": []interface{}{
					map[string]interface{}{"name": "x", "mean": 1.0, "max": 2.0},
					map[string]interface{}{"name": "y", "mean": 3.0, "max": 4.0},
				},
				"rows": 40,
			},
			"g2/keyword": {
				"keywords": []interface{}{"perovskite", "anneal"},
				"tokens":   300,
			},
		}),
		Extracted: []validate.StepResult{
			{GroupID: "g1", Extractor: "tabular", OK: true, Duration: time.Second},
			{GroupID: "g2", Extractor: "keyword", OK: true, Duration: time.Second},
		},
	}
}

func TestEvaluateRichRecord(t *testing.T) {
	s := Evaluate(richRecord(), DefaultWeights())
	if s.Completeness != 1.0 {
		t.Fatalf("completeness = %v", s.Completeness)
	}
	if s.Fields < 8 {
		t.Fatalf("fields = %d", s.Fields)
	}
	if s.Richness <= 0 || s.Richness >= 1 {
		t.Fatalf("richness = %v", s.Richness)
	}
	if s.Coverage != 1.0 {
		t.Fatalf("coverage = %v", s.Coverage)
	}
	if s.Overall <= 0.5 {
		t.Fatalf("overall = %v, expected high for a rich record", s.Overall)
	}
}

func TestEvaluateFailedSteps(t *testing.T) {
	rec := richRecord()
	rec.Extracted = append(rec.Extracted, validate.StepResult{
		GroupID: "g3", Extractor: "images", OK: false, Err: "boom",
	})
	s := Evaluate(rec, DefaultWeights())
	want := 2.0 / 3.0
	if s.Completeness < want-0.01 || s.Completeness > want+0.01 {
		t.Fatalf("completeness = %v, want %v", s.Completeness, want)
	}
}

func TestEvaluateEmptyRecord(t *testing.T) {
	s := Evaluate(validate.Record{FamilyID: "empty"}, DefaultWeights())
	if s.Completeness != 0 || s.Fields != 0 || s.Overall > 0.25 {
		t.Fatalf("score = %+v", s)
	}
}

func TestEvaluateNoStepsButMetadata(t *testing.T) {
	rec := validate.Record{
		FamilyID: "f",
		Metadata: encoded(map[string]map[string]interface{}{"g/e": {"k": 1}}),
	}
	s := Evaluate(rec, DefaultWeights())
	if s.Completeness != 1 {
		t.Fatalf("completeness fallback = %v", s.Completeness)
	}
}

func TestRicherBeatsShallower(t *testing.T) {
	rich := Evaluate(richRecord(), DefaultWeights())
	shallow := richRecord()
	shallow.Metadata = encoded(map[string]map[string]interface{}{"g1/tabular": {"rows": 40}})
	sh := Evaluate(shallow, DefaultWeights())
	if sh.Richness >= rich.Richness {
		t.Fatalf("shallow richness %v >= rich %v", sh.Richness, rich.Richness)
	}
}

func TestCoveragePartial(t *testing.T) {
	rec := validate.Record{
		FamilyID: "f",
		Files:    []string{"/a", "/b"},
		Metadata: encoded(map[string]map[string]interface{}{
			"g/images": {"images": map[string]interface{}{"/a": map[string]interface{}{"class": "plot"}}},
		}),
		Extracted: []validate.StepResult{{OK: true}},
	}
	s := Evaluate(rec, DefaultWeights())
	if s.Coverage != 0.5 {
		t.Fatalf("coverage = %v, want 0.5", s.Coverage)
	}
}

func TestZeroWeightsDefaultToThirds(t *testing.T) {
	s := Evaluate(richRecord(), Weights{})
	if s.Overall <= 0 || s.Overall > 1 {
		t.Fatalf("overall = %v", s.Overall)
	}
}

func TestScoreBounds(t *testing.T) {
	// Property: all component scores stay in [0,1] for arbitrary step
	// outcomes.
	f := func(okFlags []bool) bool {
		rec := validate.Record{FamilyID: "f", Files: []string{"/a"}}
		for i, ok := range okFlags {
			rec.Extracted = append(rec.Extracted, validate.StepResult{
				GroupID: "g", Extractor: string(rune('a' + i%26)), OK: ok,
			})
			if ok {
				rec.Metadata = encoded(map[string]map[string]interface{}{"g/x": {"v": i}})
			}
		}
		s := Evaluate(rec, DefaultWeights())
		inRange := func(v float64) bool { return v >= 0 && v <= 1 }
		return inRange(s.Completeness) && inRange(s.Richness) &&
			inRange(s.Coverage) && inRange(s.Overall)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRank(t *testing.T) {
	low := validate.Record{FamilyID: "low"}
	high := richRecord()
	mid := validate.Record{
		FamilyID:  "mid",
		Files:     []string{"/x"},
		Metadata:  encoded(map[string]map[string]interface{}{"g/e": {"k": 1}}),
		Extracted: []validate.StepResult{{OK: true}},
	}
	order := Rank([]validate.Record{low, high, mid}, DefaultWeights())
	if order[0] != 1 || order[2] != 0 {
		t.Fatalf("order = %v", order)
	}
}
