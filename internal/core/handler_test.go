package core

import (
	"context"
	"fmt"
	"testing"

	"xtract/internal/family"
	"xtract/internal/store"
	"xtract/internal/transfer"
)

// constExtractor returns the same dictionary for every group, so a step
// costs the handler's own work and nothing of an extractor's.
type constExtractor struct{ md map[string]interface{} }

func (constExtractor) Name() string                { return "const" }
func (constExtractor) Container() string           { return "xtract-const" }
func (constExtractor) Applies(store.FileInfo) bool { return true }
func (x constExtractor) Extract(*family.Group, map[string][]byte) (map[string]interface{}, error) {
	return x.md, nil
}

// TestTaskStepsStayInTheirBudget holds the worker's side of a task, the
// handler makeHandler builds, to allocations in proportion to what its
// steps hand back: a step costs the copy of its metadata and one
// allocation per file it reads (a MemFS read is the caller's copy), and
// the task a constant: its result and outcome list, the scratch its steps
// share (its encode buffer inline) and that scratch's map. An eight-step
// task is measured against a one-step task of the same steps, and the
// one-step task is held to its own budget: a task that carries a single
// step pays no buffer growth and no copy beyond its outcome's. A staged
// family's steps cost the same: each file is read under the path staging
// built for it, not one joined again for every read.
func TestTaskStepsStayInTheirBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const steps, filesPerStep, perTask, oneStep = 8, 2, 5, 8
	m := newMachine(t, nil)
	site := &Site{Name: "w", Store: store.NewMemFS("w", nil)}
	ext := constExtractor{md: map[string]interface{}{"kind": "constant", "files": 2.0,
		"names": []interface{}{"POSCAR", "OUTCAR"}}}
	for _, stage := range []string{"", "/stage"} {
		task := &taskPayload{Extractor: ext.Name()}
		for i := 0; i < steps; i++ {
			step := stepPayload{FamilyID: fmt.Sprintf("fam%d", i), GroupID: fmt.Sprintf("g%d", i), Stage: stage}
			for j := 0; j < filesPerStep; j++ {
				p := fmt.Sprintf("/data/calc_%d/f%d", i, j)
				if err := site.Store.Write(stage+p, []byte("contents")); err != nil {
					t.Fatal(err)
				}
				step.Files = append(step.Files, p)
				if stage != "" {
					step.Staged = append(step.Staged, transfer.FilePair{Src: p, Dst: stage + p})
				}
			}
			task.Steps = append(task.Steps, step)
		}
		one := &taskPayload{Extractor: task.Extractor, Steps: task.Steps[:1]}
		handler := m.svc.makeHandler(site, ext)
		measure := func(p *taskPayload) float64 {
			return testing.AllocsPerRun(20, func() {
				out, err := handler(context.Background(), p)
				res, _ := out.(*taskResult)
				if err != nil || res == nil || len(res.Outcomes) != len(p.Steps) || !res.Outcomes[len(p.Steps)-1].OK {
					t.Fatalf("task ended %#v, %v", out, err)
				}
			})
		}
		a1, a8 := measure(one), measure(task)
		perStep := (a8 - a1) / (steps - 1)
		t.Logf("stage %q: %.0f allocations for a one-step task, %.0f for eight: %.2f a step", stage, a1, a8, perStep)
		if perStep != 1+filesPerStep {
			t.Errorf("stage %q: a step allocated %.2f times, budget %d (its metadata copy and one per file read)", stage, perStep, 1+filesPerStep)
		}
		if task := a1 - (1 + filesPerStep); task > perTask {
			t.Errorf("stage %q: a task allocated %.0f times besides its steps, budget %d", stage, task, perTask)
		}
		if a1 > oneStep {
			t.Errorf("stage %q: a one-step task allocated %.0f times, budget %d", stage, a1, oneStep)
		}
	}
}
