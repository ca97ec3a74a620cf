// Package scheduler implements Xtract's extraction planning and task
// placement: the per-family extraction plan (which extractors to apply to
// which groups, updated dynamically as metadata arrives), and the
// offloading policies — local-only, RAND, and offload-n-bytes (ONB) —
// that decide where each family executes (paper §4.3.3, Table 2).
package scheduler

import (
	"fmt"
	"sync"

	"xtract/internal/family"
)

// Step is one pending extractor application within a plan.
type Step struct {
	GroupID   string `json:"group_id"`
	Extractor string `json:"extractor"`
}

// Plan is the dynamic extraction plan for one family: the next() function
// of the paper's formalization, realized as a work queue of steps that
// extractor results may extend.
type Plan struct {
	FamilyID string

	mu      sync.Mutex
	pending []Step
	issued  map[Step]bool
	done    map[Step]bool
}

// BuildPlan derives the initial plan from each group's assigned extractor.
func BuildPlan(fam *family.Family) *Plan {
	p := &Plan{
		FamilyID: fam.ID,
		issued:   make(map[Step]bool),
		done:     make(map[Step]bool),
	}
	for _, g := range fam.Groups {
		if g.Extractor != "" {
			p.addLocked(Step{GroupID: g.ID, Extractor: g.Extractor})
		}
	}
	return p
}

func (p *Plan) addLocked(s Step) bool {
	if p.issued[s] || p.done[s] {
		return false
	}
	for _, existing := range p.pending {
		if existing == s {
			return false
		}
	}
	p.pending = append(p.pending, s)
	return true
}

// Add appends a step unless it is already pending, issued, or done.
// Returns whether the step was added.
func (p *Plan) Add(groupID, extractor string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addLocked(Step{GroupID: groupID, Extractor: extractor})
}

// Next pops the next step to execute, marking it issued. The boolean is
// false when no step is currently pending (the plan may still grow).
func (p *Plan) Next() (Step, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.pending) == 0 {
		return Step{}, false
	}
	s := p.pending[0]
	p.pending = p.pending[1:]
	p.issued[s] = true
	return s, true
}

// Complete records a step's terminal result and extends the plan with
// the extractors its metadata suggested (the dynamic replanning of §3).
func (p *Plan) Complete(s Step, suggestions []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.issued, s)
	p.done[s] = true
	for _, suggested := range suggestions {
		p.addLocked(Step{GroupID: s.GroupID, Extractor: suggested})
	}
}

// Fail records a step as done without suggestions.
func (p *Plan) Fail(s Step) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.issued, s)
	p.done[s] = true
}

// Reset returns an issued step to pending (used when its task was lost
// with the endpoint allocation — the Figure 8 restart path).
func (p *Plan) Reset(s Step) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.issued[s] {
		delete(p.issued, s)
		p.pending = append(p.pending, s)
	}
}

// Done reports whether every step has completed and none are pending or
// in flight.
func (p *Plan) Done() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending) == 0 && len(p.issued) == 0
}

// Counts reports (pending, issued, done) step counts.
func (p *Plan) Counts() (pending, issued, done int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending), len(p.issued), len(p.done)
}

// String summarizes plan progress.
func (p *Plan) String() string {
	pe, is, dn := p.Counts()
	return fmt.Sprintf("plan %s: %d pending, %d issued, %d done", p.FamilyID, pe, is, dn)
}
