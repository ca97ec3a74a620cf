// Package clock abstracts time so that Xtract components can run against
// either the wall clock (production, examples) or a controllable fake
// clock (tests). Components that sleep, time out, or expire leases take a
// Clock rather than calling the time package directly.
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the subset of the time package Xtract components depend on.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks for at least d.
	Sleep(d time.Duration)
	// After returns a channel that delivers the time after d has elapsed.
	After(d time.Duration) <-chan time.Time
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
}

// SleepUntil blocks until c reads t or later (not at all if it does): a
// caller sleeping to the points of one schedule pays a late wake-up once.
func SleepUntil(c Clock, t time.Time) { c.Sleep(t.Sub(c.Now())) }

// Real is a Clock backed by the system wall clock.
type Real struct{}

// NewReal returns a wall-clock Clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Fake is a manually advanced Clock for deterministic tests. The zero
// value is not usable; construct with NewFake.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     int64
}

// NewFake returns a Fake clock initialized to start.
func NewFake(start time.Time) *Fake {
	return &Fake{now: start}
}

type waiter struct {
	at  time.Time
	seq int64
	ch  chan time.Time
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h waiterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x interface{}) { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Since implements Clock.
func (f *Fake) Since(t time.Time) time.Duration { return f.Now().Sub(t) }

// After implements Clock. The returned channel fires when Advance moves
// the clock past the deadline.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- f.now
		return ch
	}
	f.seq++
	heap.Push(&f.waiters, &waiter{at: f.now.Add(d), seq: f.seq, ch: ch})
	return ch
}

// Sleep implements Clock. It blocks until another goroutine advances the
// clock past the deadline.
func (f *Fake) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-f.After(d)
}

// Advance moves the fake clock forward by d, firing every timer whose
// deadline is reached, in deadline order.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	target := f.now.Add(d)
	for len(f.waiters) > 0 && !f.waiters[0].at.After(target) {
		w := heap.Pop(&f.waiters).(*waiter)
		f.now = w.at
		w.ch <- w.at
	}
	f.now = target
	f.mu.Unlock()
}

// Set jumps the clock to t (which must not be earlier than Now), firing
// timers along the way.
func (f *Fake) Set(t time.Time) {
	f.mu.Lock()
	d := t.Sub(f.now)
	f.mu.Unlock()
	if d > 0 {
		f.Advance(d)
	}
}

// PendingTimers reports how many timers are waiting to fire. Useful for
// tests that need to synchronize with sleeping goroutines.
func (f *Fake) PendingTimers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}
