package scheduler

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xtract/internal/family"
)

func testFamily() *family.Family {
	return &family.Family{
		ID: "fam-1",
		Groups: []family.Group{
			{ID: "g1", Extractor: "keyword", Files: []string{"/a.txt"}},
			{ID: "g2", Extractor: "tabular", Files: []string{"/b.csv"}},
		},
		FileMeta: []family.FileMeta{
			{Path: "/a.txt", Size: 100},
			{Path: "/b.csv", Size: 200},
		},
	}
}

// pending counts the steps a plan has named and not yet handed out.
func pending(p *Plan) int { return len(p.steps) - p.next }

func TestBuildPlanInitialSteps(t *testing.T) {
	p := BuildPlan(testFamily())
	if pending(p) != 2 || p.next != 0 {
		t.Fatalf("pending = %d, handed out = %d", pending(p), p.next)
	}
}

func TestPlanNextCompleteFlow(t *testing.T) {
	p := BuildPlan(testFamily())
	s1, ok := p.Next()
	if !ok || s1.GroupID != "g1" {
		t.Fatalf("next = %+v, %v", s1, ok)
	}
	s2, ok := p.Next()
	if !ok || s2.GroupID != "g2" {
		t.Fatalf("next = %+v, %v", s2, ok)
	}
	if _, ok := p.Next(); ok {
		t.Fatal("third next should be empty")
	}
	p.Complete(s1, nil)
	p.Complete(s2, nil)
	if _, ok := p.Next(); ok {
		t.Fatal("completions without suggestions grew the plan")
	}
}

func TestPlanDynamicSuggestions(t *testing.T) {
	p := BuildPlan(testFamily())
	s, _ := p.Next()
	// Result suggests the tabular extractor for the same group.
	p.Complete(s, []string{"tabular", "nullvalue"})
	// g1/tabular and g1/nullvalue are new; g2/tabular was initial.
	if n := pending(p); n != 3 { // g2-tabular (initial) + g1-tabular + g1-nullvalue
		t.Fatalf("pending = %d, want 3", n)
	}
	// Completing a suggested step with the same suggestion must not loop.
	s2, _ := p.Next()
	p.Complete(s2, []string{"tabular"})
	for {
		st, ok := p.Next()
		if !ok {
			break
		}
		p.Complete(st, nil)
	}
	if len(p.steps) != 4 { // the repeated suggestion named nothing new
		t.Fatalf("plan named %d steps, want 4", len(p.steps))
	}
}

func TestPlanAddDeduplicates(t *testing.T) {
	p := BuildPlan(testFamily())
	if p.Add("g1", "keyword") {
		t.Fatal("duplicate pending step added")
	}
	if !p.Add("g1", "entity") {
		t.Fatal("new step rejected")
	}
	s, _ := p.Next()
	if p.Add(s.GroupID, s.Extractor) {
		t.Fatal("handed-out step re-added")
	}
	p.Complete(s, nil)
	if p.Add(s.GroupID, s.Extractor) {
		t.Fatal("completed step re-added")
	}
}

func TestPlanString(t *testing.T) {
	p := BuildPlan(testFamily())
	if p.String() == "" {
		t.Fatal("empty String")
	}
}

func TestPlanConvergesProperty(t *testing.T) {
	// Property: regardless of suggestion patterns drawn from a finite
	// extractor set, a plan always converges (suggestions are
	// deduplicated), with at most groups*extractors completions.
	extractorSet := []string{"keyword", "tabular", "nullvalue", "entity"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := BuildPlan(testFamily())
		completions := 0
		for {
			s, ok := p.Next()
			if !ok {
				break
			}
			var suggested []string
			if rng.Intn(2) == 0 {
				suggested = []string{extractorSet[rng.Intn(len(extractorSet))]}
			}
			p.Complete(s, suggested)
			completions++
			if completions > 2*len(extractorSet)*2 {
				return false // runaway plan
			}
		}
		return pending(p) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSiteStateBusy(t *testing.T) {
	if (SiteState{Workers: 10, QueueDepth: 5}).Busy() {
		t.Fatal("under-filled site reported busy")
	}
	if !(SiteState{Workers: 10, QueueDepth: 11}).Busy() {
		t.Fatal("over-filled site not busy")
	}
	if (SiteState{Workers: 0, QueueDepth: 100}).Busy() {
		t.Fatal("computeless site busy")
	}
}

func TestLocalPolicy(t *testing.T) {
	pol := LocalPolicy{}
	home := SiteState{Name: "midway", HasCompute: true, Workers: 4}
	alt := SiteState{Name: "jetstream", HasCompute: true, Workers: 2}
	if got := pol.Place(testFamily(), home, []SiteState{alt}); got != "midway" {
		t.Fatalf("Place = %q", got)
	}
	// Storage-only home must offload.
	petrel := SiteState{Name: "petrel", HasCompute: false}
	if got := pol.Place(testFamily(), petrel, []SiteState{alt}); got != "jetstream" {
		t.Fatalf("Place = %q", got)
	}
	// No compute anywhere: stay home (caller will error).
	if got := pol.Place(testFamily(), petrel, nil); got != "petrel" {
		t.Fatalf("Place = %q", got)
	}
}

func TestRandPolicyPercentage(t *testing.T) {
	pol := &RandPolicy{Percent: 10, Rng: rand.New(rand.NewSource(42))}
	home := SiteState{Name: "midway", HasCompute: true, Workers: 56}
	alt := SiteState{Name: "jetstream", HasCompute: true, Workers: 10}
	offloaded := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if pol.Place(testFamily(), home, []SiteState{alt}) == "jetstream" {
			offloaded++
		}
	}
	frac := float64(offloaded) / n * 100
	if frac < 8.5 || frac > 11.5 {
		t.Fatalf("offload rate = %.2f%%, want ~10%%", frac)
	}
}

func TestRandPolicyZeroPercent(t *testing.T) {
	pol := &RandPolicy{Percent: 0, Rng: rand.New(rand.NewSource(1))}
	home := SiteState{Name: "midway", HasCompute: true, Workers: 4}
	alt := SiteState{Name: "jetstream", HasCompute: true}
	for i := 0; i < 100; i++ {
		if pol.Place(testFamily(), home, []SiteState{alt}) != "midway" {
			t.Fatal("0% policy offloaded")
		}
	}
}

func TestRandPolicySkipsComputelessAlternates(t *testing.T) {
	pol := &RandPolicy{Percent: 100, Rng: rand.New(rand.NewSource(1))}
	home := SiteState{Name: "midway", HasCompute: true, Workers: 4}
	stor := SiteState{Name: "petrel", HasCompute: false}
	if got := pol.Place(testFamily(), home, []SiteState{stor}); got != "midway" {
		t.Fatalf("Place = %q, offloaded to storage-only site", got)
	}
}

func TestONBPolicyMax(t *testing.T) {
	pol := &ONBPolicy{LimitBytes: 250, Mode: ONBMax}
	busy := SiteState{Name: "midway", HasCompute: true, Workers: 2, QueueDepth: 10}
	idle := SiteState{Name: "jetstream", HasCompute: true, Workers: 10, QueueDepth: 0}
	small := testFamily() // 300 bytes total
	if got := pol.Place(small, busy, []SiteState{idle}); got != "jetstream" {
		t.Fatalf("big family on busy home: Place = %q", got)
	}
	// Under the limit: stays.
	pol.LimitBytes = 1000
	if got := pol.Place(small, busy, []SiteState{idle}); got != "midway" {
		t.Fatalf("small family offloaded: %q", got)
	}
	// Idle home: never offloads.
	pol.LimitBytes = 1
	idleHome := SiteState{Name: "midway", HasCompute: true, Workers: 16, QueueDepth: 0}
	if got := pol.Place(small, idleHome, []SiteState{idle}); got != "midway" {
		t.Fatalf("idle home offloaded: %q", got)
	}
}

func TestONBPolicyMin(t *testing.T) {
	pol := &ONBPolicy{LimitBytes: 1000, Mode: ONBMin}
	busy := SiteState{Name: "midway", HasCompute: true, Workers: 2, QueueDepth: 10}
	idle := SiteState{Name: "jetstream", HasCompute: true, Workers: 10}
	if got := pol.Place(testFamily(), busy, []SiteState{idle}); got != "jetstream" {
		t.Fatalf("small family not offloaded in min mode: %q", got)
	}
}

func TestONBPolicyNames(t *testing.T) {
	if (&ONBPolicy{Mode: ONBMax}).Name() != "onb-max" ||
		(&ONBPolicy{Mode: ONBMin}).Name() != "onb-min" ||
		(LocalPolicy{}).Name() != "local" ||
		(&RandPolicy{}).Name() != "rand" {
		t.Fatal("policy names wrong")
	}
}

func TestLeastLoaded(t *testing.T) {
	alts := []SiteState{
		{Name: "a", HasCompute: true, Workers: 10, QueueDepth: 30},
		{Name: "b", HasCompute: true, Workers: 10, QueueDepth: 5},
		{Name: "c", HasCompute: false},
	}
	got, ok := leastLoaded(alts)
	if !ok || got.Name != "b" {
		t.Fatalf("leastLoaded = %+v, %v", got, ok)
	}
	if _, ok := leastLoaded([]SiteState{{Name: "x"}}); ok {
		t.Fatal("computeless alternates accepted")
	}
}
