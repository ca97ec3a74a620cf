// Package scheduler implements Xtract's extraction planning and task
// placement: the per-family extraction plan (which extractors to apply to
// which groups, updated dynamically as metadata arrives), and the
// offloading policies — local-only, RAND, and offload-n-bytes (ONB) —
// that decide where each family executes (paper §4.3.3, Table 2).
package scheduler

import (
	"fmt"

	"xtract/internal/family"
)

// Step is one extractor application within a plan.
type Step struct {
	GroupID   string `json:"group_id"`
	Extractor string `json:"extractor"`
}

// Plan is the dynamic extraction plan for one family: the next() function
// of the paper's formalization. It decides which steps exist — each named
// once, in the order the family's groups and then the extractors' own
// results name them — and nothing else: where a step stands after Next
// has handed it out is the orchestrator's record, not the plan's. A plan
// belongs to the one goroutine running its family.
type Plan struct {
	FamilyID string

	steps []Step // every step named so far; steps[:next] have been handed out
	next  int
}

// BuildPlan derives the initial plan from each group's assigned extractor.
func BuildPlan(fam *family.Family) *Plan {
	p := &Plan{FamilyID: fam.ID, steps: make([]Step, 0, len(fam.Groups))}
	for _, g := range fam.Groups {
		if g.Extractor != "" {
			p.Add(g.ID, g.Extractor)
		}
	}
	return p
}

// Add names a step unless the plan has named it before, whether or not it
// has been handed out since. Returns whether the step was added.
func (p *Plan) Add(groupID, extractor string) bool {
	s := Step{GroupID: groupID, Extractor: extractor}
	for _, named := range p.steps {
		if named == s {
			return false
		}
	}
	p.steps = append(p.steps, s)
	return true
}

// Next hands out the next step not handed out yet. The boolean is false
// when there is none (the plan may still grow).
func (p *Plan) Next() (Step, bool) {
	if p.next == len(p.steps) {
		return Step{}, false
	}
	s := p.steps[p.next]
	p.next++
	return s, true
}

// Complete extends the plan with the extractors a finished step's
// metadata suggested for its group (the dynamic replanning of §3).
func (p *Plan) Complete(s Step, suggestions []string) {
	for _, suggested := range suggestions {
		p.Add(s.GroupID, suggested)
	}
}

// String summarizes the plan.
func (p *Plan) String() string {
	return fmt.Sprintf("plan %s: %d steps named, %d handed out", p.FamilyID, len(p.steps), p.next)
}
