package cluster_test

// cluster_chaos_test.go is the seeded cluster chaos suite: 24 seeds,
// each booting a fresh 3-node harness cluster (see harness_test.go) and
// executing a seed-derived churn schedule against one in-flight job —
// kill the owner, kill-and-restart the owner, cancel then kill, or kill
// a bystander. Every seed asserts the same safety invariants:
//
//   - the job converges to exactly one terminal state, on some node;
//   - no step completion that was journaled at kill time is ever
//     re-invoked by another node (failover replays the cached result
//     instead of re-dispatching the FaaS task);
//   - the destination store is byte-identical to an unkilled control
//     run (or a byte-identical subset, for jobs that end CANCELLED);
//   - cancelled jobs stay cancelled across owner death — no survivor
//     resurrects them.
//
// Liveness beyond convergence is deliberately not asserted: under
// -race load a slow node's lease can legitimately expire, causing
// extra — legal — failovers.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/registry"
)

const chaosSeeds = 24

func TestClusterChaosSeeds(t *testing.T) {
	control := chaosControlRun(t)
	for seed := int64(0); seed < chaosSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%02d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosSeed(t, seed, control)
		})
	}
}

func runChaosSeed(t *testing.T, seed int64, control chaosControlResult) {
	rng := rand.New(rand.NewSource(seed))
	cl := newChaosCluster(t)
	delay := 2 * time.Millisecond
	n1 := cl.startNode(t, "n1", delay)
	n2 := cl.startNode(t, "n2", delay)
	n3 := cl.startNode(t, "n3", delay)

	// Seeded trigger: fire once after the k-th journal append. The hook
	// runs under the journal lock, so it only signals; the scenario acts
	// from the test goroutine.
	killAfter := 1 + rng.Int63n(control.records-1)
	trigger := make(chan struct{})
	var once sync.Once
	var appends int64
	cl.jnl.Observe(func(string) {
		if atomic.AddInt64(&appends, 1) == killAfter {
			once.Do(func() { close(trigger) })
		}
	}, nil)

	jobCtx, jobCancel := context.WithCancel(n1.ctx)
	defer jobCancel()
	jobID, jobDone := startJob(t, n1.svc, jobCtx, chaosRepos(n1.inv, delay))

	// The trigger may never fire if the job outruns the seeded append
	// count — the scenario degrades to an unkilled run, which must still
	// match the control exactly.
	fired := false
	select {
	case <-trigger:
		fired = true
	case <-jobDone:
		jobDone <- nil // keep the channel readable for the tail of the test
	case <-time.After(60 * time.Second):
		t.Fatalf("seed %d: job neither hit the kill point nor finished", seed)
	}

	scenario := seed % 4
	var journaled map[string]bool // completions on disk at kill time
	cancelled := false

	if fired {
		switch scenario {
		case 0: // kill the owner mid-dispatch
			journaled = cl.journaledSteps(jobID)
			n1.kill()

		case 1: // kill the owner, then restart it after a survivor adopts
			journaled = cl.journaledSteps(jobID)
			n1.kill()
			waitAdoptionOrTerminal(t, seed, cl, jobID, "n1")
			restarted := cl.startNode(t, "n1", delay)
			defer func() {
				// The restarted node must never have re-run a completion
				// that predates the kill — it either stayed a bystander or
				// adopted with the cache seeded from the journal.
				for key := range journaled {
					if n := restarted.inv.count(key); n > 0 {
						t.Errorf("seed %d: restarted node re-invoked journaled step %q %d times", seed, key, n)
					}
				}
			}()

		case 2: // cancel the job, then kill its owner: cancelled stays cancelled
			jobCancel()
			if err := awaitJob(jobDone, 60*time.Second); err == nil {
				// Cancel raced completion and lost; treat as unkilled.
				jobDone <- nil
			} else {
				cancelled = true
			}
			js := cl.waitTerminal(t, jobID, 60*time.Second)
			if cancelled && js.State != string(registry.JobCancelled) {
				t.Fatalf("seed %d: cancelled job journaled %s", seed, js.State)
			}
			journaled = cl.journaledSteps(jobID)
			n1.kill()
			// Three lease TTLs is ample time for any survivor that wrongly
			// considered the job adoptable to act on it.
			time.Sleep(3 * harnessLeaseTTL)
			cl.drainAlive()
			js2, ok := cl.jnl.JobSnapshot(jobID)
			if !ok || !js2.Terminal || js2.State != js.State {
				t.Fatalf("seed %d: terminal state did not survive owner death: %+v", seed, js2)
			}
			for key := range journaled {
				if n := n2.inv.count(key) + n3.inv.count(key); n > 0 {
					t.Errorf("seed %d: survivors re-invoked step %q of a terminal job", seed, key)
				}
			}

		case 3: // kill a bystander: the owner is undisturbed
			journaled = cl.journaledSteps(jobID)
			n2.kill()
		}
	}

	// Whatever the churn, the job converges to exactly one terminal state.
	if !cancelled {
		_ = awaitJob(jobDone, 60*time.Second)
	}
	js := cl.waitTerminal(t, jobID, 60*time.Second)
	wantState := string(registry.JobComplete)
	if cancelled {
		wantState = string(registry.JobCancelled)
	}
	if js.State != wantState {
		t.Fatalf("seed %d: job converged to %s, want %s", seed, js.State, wantState)
	}

	// Exactly-once: nothing journaled at kill time re-ran on another
	// node. The original owner's first execution is the one legal
	// invocation; survivors must replay the cached result, never
	// re-dispatch the FaaS task.
	for key := range journaled {
		if n := n2.inv.count(key) + n3.inv.count(key); n > 0 {
			t.Errorf("seed %d: journaled step %q re-invoked %d times after churn", seed, key, n)
		}
	}

	// Destination convergence: byte-identical to the control, or a
	// byte-identical subset for a cancelled job.
	if cancelled {
		cl.drainAlive()
		for p, b := range snapshotDocs(t, cl.dest) {
			want, ok := control.docs[p]
			if !ok {
				t.Errorf("seed %d: cancelled run produced unexpected doc %s", seed, p)
			} else if !bytes.Equal(b, want) {
				t.Errorf("seed %d: doc %s differs from control", seed, p)
			}
		}
	} else {
		cl.waitDocs(t, control.docs, 60*time.Second)
	}
}

// waitAdoptionOrTerminal blocks until the job's lease is held live by a
// node other than deadID, or the job reaches a terminal state.
func waitAdoptionOrTerminal(t *testing.T, seed int64, cl *chaosCluster, jobID, deadID string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		cl.drainAlive()
		if l, held := cl.coord.Holder(jobID); held && l.Node != deadID {
			return
		}
		if js, ok := cl.jnl.JobSnapshot(jobID); ok && js.Terminal {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: no survivor adopted %s", seed, jobID)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func awaitJob(done chan error, timeout time.Duration) error {
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("job call did not return within %v", timeout)
	}
}
