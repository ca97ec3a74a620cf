package tenant

import (
	"context"
	"math/rand"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestUncontendedAcquireAllocatesNothing: with a slot free and nobody
// queued, a task slot is granted without a waiter. The race detector
// changes allocation counts, so the test skips under it.
func TestUncontendedAcquireAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	c := NewController(Config{TaskSlots: 16})
	grant := func() {
		if waited, err := c.AcquireTask(context.Background(), "alice"); waited || err != nil {
			t.Fatalf("uncontended acquire: waited %v, %v", waited, err)
		}
		c.ReleaseTasks("alice", 1)
	}
	grant() // the tenant's state is made once
	if n := testing.AllocsPerRun(1000, grant); n != 0 {
		t.Fatalf("an uncontended AcquireTask allocated %.0f times, budget 0", n)
	}
}

// queuedAcquire is AcquireTask as every call took it before the
// uncontended grant: queue a waiter and let pumpLocked serve it. It is
// only called when the grant cannot block.
func queuedAcquire(t *testing.T, c *Controller, id string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.stateLocked(Normalize(id))
	if ts.inflight == 0 && ts.waiting == 0 && ts.pass < c.vtime {
		ts.pass = c.vtime
	}
	w := &waiter{t: ts, ch: make(chan struct{})}
	c.waiters = append(c.waiters, w)
	ts.waiting++
	c.pumpLocked()
	if !w.granted {
		t.Fatalf("queued acquire for %s was not granted", id)
	}
}

// TestUncontendedGrantMatchesQueuedPath: grants made without a waiter
// advance each tenant's pass, the virtual time and the bill exactly as
// the queued path does, over a seeded run of acquires and releases by
// tenants of different weights, idle spells included — under a global
// budget, and without one while a capped tenant's waiter is queued.
func TestUncontendedGrantMatchesQueuedPath(t *testing.T) {
	overrides := map[string]Limits{"bob": {Weight: 3}, "carol": {MaxInFlightTasks: 2}}
	for _, tc := range []struct {
		name        string
		cfg         Config
		carolQueued bool
	}{
		{"budget", Config{TaskSlots: 6, Overrides: overrides}, false},
		{"no budget, a capped waiter queued", Config{Overrides: overrides}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast, queued := NewController(tc.cfg), NewController(tc.cfg)
			ids := []string{"alice", "bob", "carol"}
			held := map[string]int{}
			if tc.carolQueued {
				// carol at her cap, with a third acquire queued behind it.
				for _, c := range []*Controller{fast, queued} {
					queuedAcquire(t, c, "carol")
					queuedAcquire(t, c, "carol")
					c.mu.Lock()
					ts := c.stateLocked("carol")
					c.waiters = append(c.waiters, &waiter{t: ts, ch: make(chan struct{})})
					ts.waiting++
					c.mu.Unlock()
				}
				ids = ids[:2]
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 2000; i++ {
				id := ids[rng.Intn(len(ids))]
				total := held["alice"] + held["bob"] + held["carol"]
				capped := id == "carol" && held[id] >= 2
				if rng.Intn(2) == 0 && (tc.cfg.TaskSlots <= 0 || total < tc.cfg.TaskSlots) && !capped {
					if waited, err := fast.AcquireTask(context.Background(), id); waited || err != nil {
						t.Fatalf("step %d: %s waited %v, %v with a slot free", i, id, waited, err)
					}
					queuedAcquire(t, queued, id)
					held[id]++
				} else if held[id] > 0 {
					n := 1 + rng.Intn(held[id])
					fast.ReleaseTasks(id, n)
					queued.ReleaseTasks(id, n)
					held[id] -= n
				}
				if fast.vtime != queued.vtime || fast.inflight != queued.inflight || len(fast.waiters) != len(queued.waiters) {
					t.Fatalf("step %d: vtime %v, inflight %d, %d queued; the queued path gives %v, %d, %d",
						i, fast.vtime, fast.inflight, len(fast.waiters), queued.vtime, queued.inflight, len(queued.waiters))
				}
				for _, id := range []string{"alice", "bob", "carol"} {
					f, q := fast.tenants[id], queued.tenants[id]
					if (f == nil) != (q == nil) || f != nil && (f.pass != q.pass || f.inflight != q.inflight || f.usage != q.usage) {
						t.Fatalf("step %d: tenant %s is %+v; the queued path gives %+v", i, id, f, q)
					}
				}
			}
			if fast.tenants["bob"].usage.TasksDispatched == 0 {
				t.Fatal("the run granted bob nothing")
			}
		})
	}
}
