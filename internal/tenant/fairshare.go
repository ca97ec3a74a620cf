package tenant

import "context"

// waiter is one blocked AcquireTask call. granted flips under the
// controller lock before ch is closed, so a ctx-cancelled waiter can
// tell whether it must hand its slot back.
type waiter struct {
	t       *state
	ch      chan struct{}
	granted bool
}

// AcquireTask blocks until the tenant may dispatch one more FaaS task,
// arbitrating the global TaskSlots budget by stride scheduling: the
// eligible tenant with the lowest virtual time (pass) is served next,
// and each grant advances its pass by 1/weight — so a flooding tenant's
// pass races ahead and a light tenant's dispatches interleave at its
// fair share instead of queueing behind the flood. waited reports
// whether the call blocked (callers emit a throttle trace event).
//
// The caller must pair every successful acquire with ReleaseTasks(1);
// on ctx cancellation the slot is returned internally.
func (c *Controller) AcquireTask(ctx context.Context, id string) (waited bool, err error) {
	if c == nil {
		return false, nil
	}
	id = Normalize(id)
	c.mu.Lock()
	t := c.stateLocked(id)
	// A tenant rejoining after idling must not carry an ancient (small)
	// pass that would let it monopolize slots to "catch up": virtual
	// time only moves forward.
	if t.inflight == 0 && t.waiting == 0 && t.pass < c.vtime {
		t.pass = c.vtime
	}
	// The uncontended grant: if the tenant is eligible and nobody is
	// queued — or nobody it could pass over, as without a global budget a
	// waiter waits only on its own tenant's cap — pumpLocked would grant
	// this call at once. Grant it here, without a waiter.
	if (len(c.waiters) == 0 || c.cfg.TaskSlots <= 0) && c.slotFreeLocked() && t.underCap() {
		c.grantLocked(t)
		c.mu.Unlock()
		return false, nil
	}
	w := &waiter{t: t, ch: make(chan struct{})}
	c.waiters = append(c.waiters, w)
	t.waiting++
	c.pumpLocked()
	if w.granted {
		c.mu.Unlock()
		return false, nil
	}
	// A throttle is a wait another tenant causes by holding or awaiting a
	// slot; a wait behind the tenant's own tasks is not one.
	if c.inflight > t.inflight || len(c.waiters) > t.waiting {
		t.throttled[throttleFair]++
	}
	c.mu.Unlock()

	select {
	case <-w.ch:
		return true, nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.granted {
			// Lost the race: the slot was granted as ctx fired. Hand it
			// straight back so it isn't leaked.
			c.releaseLocked(t, 1)
		} else {
			for i, q := range c.waiters {
				if q == w {
					c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
					break
				}
			}
			t.waiting--
		}
		c.mu.Unlock()
		return true, ctx.Err()
	}
}

// ReleaseTasks returns n task slots for the tenant and wakes eligible
// waiters.
func (c *Controller) ReleaseTasks(id string, n int) {
	if c == nil || n <= 0 {
		return
	}
	id = Normalize(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked(c.stateLocked(id), n)
}

// releaseLocked decrements slot counts (clamped) and re-runs admission.
func (c *Controller) releaseLocked(t *state, n int) {
	for i := 0; i < n; i++ {
		if t.inflight > 0 {
			t.inflight--
		}
		if c.inflight > 0 {
			c.inflight--
		}
	}
	c.pumpLocked()
}

// pumpLocked grants free slots to waiters in stride order: repeatedly
// pick the eligible waiter whose tenant has the strictly smallest pass
// (FIFO within a tenant — the scan takes the first waiter at that pass)
// until slots run out or no waiter is eligible.
func (c *Controller) pumpLocked() {
	for {
		if !c.slotFreeLocked() {
			return
		}
		var best *waiter
		bestIdx := -1
		for i, w := range c.waiters {
			if !w.t.underCap() {
				continue
			}
			if best == nil || w.t.pass < best.t.pass {
				best, bestIdx = w, i
			}
		}
		if best == nil {
			return
		}
		c.waiters = append(c.waiters[:bestIdx], c.waiters[bestIdx+1:]...)
		best.t.waiting--
		best.granted = true
		c.grantLocked(best.t)
		close(best.ch)
	}
}

// slotFreeLocked reports whether the global budget has a slot free.
func (c *Controller) slotFreeLocked() bool {
	return c.cfg.TaskSlots <= 0 || c.inflight < c.cfg.TaskSlots
}

// underCap reports whether the tenant holds fewer slots than its own cap.
func (t *state) underCap() bool {
	return t.lim.MaxInFlightTasks <= 0 || t.inflight < t.lim.MaxInFlightTasks
}

// grantLocked gives t one slot and advances its pass, and the virtual
// time to the pass it was served at.
func (c *Controller) grantLocked(t *state) {
	t.inflight++
	c.inflight++
	if t.pass > c.vtime {
		c.vtime = t.pass
	}
	t.pass += 1 / t.lim.weight()
	t.usage.TasksDispatched++
}
