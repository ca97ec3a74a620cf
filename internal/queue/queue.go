// Package queue implements an in-process message queue with the SQS
// semantics Xtract depends on: at-least-once delivery, visibility
// timeouts, receipt-based deletion, and sent/deleted counters. The
// paper's crawler→service and service→validator hops both ride on SQS;
// here they ride on this package.
package queue

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"xtract/internal/clock"
)

// ErrUnknownReceipt is returned by Delete for receipts that do not
// correspond to an in-flight message.
var ErrUnknownReceipt = errors.New("queue: unknown receipt handle")

// Message is a received queue message. Receipt must be passed to Delete
// to acknowledge it; if not deleted before the visibility timeout elapses
// the message is redelivered.
type Message struct {
	ID         string
	Body       []byte
	Receipt    string
	Deliveries int // how many times this message has been received
}

type entry struct {
	id         string
	body       []byte
	deliveries int
	expiresAt  time.Time // while in flight
}

// Queue is a FIFO-ordered at-least-once queue. Safe for concurrent use.
type Queue struct {
	name string
	clk  clock.Clock

	mu       sync.Mutex
	visible  []*entry          // FIFO order
	inflight map[string]*entry // by receipt
	seq      int64
	sent     int64
	deleted  int64
}

// New returns an empty queue named name using clk for visibility expiry.
func New(name string, clk clock.Clock) *Queue {
	return &Queue{
		name:     name,
		clk:      clk,
		inflight: make(map[string]*entry),
	}
}

// SendBatch enqueues several messages atomically and returns their IDs.
// Each body is copied.
func (q *Queue) SendBatch(bodies [][]byte) []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	ids := make([]string, len(bodies))
	for i, b := range bodies {
		q.seq++
		ids[i] = q.name + "-" + strconv.FormatInt(q.seq, 10)
		q.visible = append(q.visible, &entry{id: ids[i], body: append([]byte(nil), b...)})
	}
	q.sent += int64(len(bodies))
	return ids
}

// reclaimLocked moves expired in-flight messages back to the visible
// queue. Every operation that reads the in-flight set calls it first, so
// no timer is needed: an expired message is visible to the next Receive.
func (q *Queue) reclaimLocked() {
	if len(q.inflight) == 0 {
		return
	}
	now := q.clk.Now()
	for receipt, e := range q.inflight {
		if !e.expiresAt.After(now) {
			delete(q.inflight, receipt)
			q.visible = append(q.visible, e)
		}
	}
}

// Receive dequeues up to max messages, making them invisible to other
// consumers for the visibility duration. Returns nil when the queue has
// no visible messages.
func (q *Queue) Receive(max int, visibility time.Duration) []Message {
	if max <= 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reclaimLocked()
	n := max
	if n > len(q.visible) {
		n = len(q.visible)
	}
	if n == 0 {
		return nil
	}
	now := q.clk.Now()
	out := make([]Message, 0, n)
	for i := 0; i < n; i++ {
		e := q.visible[i]
		q.visible[i] = nil
		e.deliveries++
		q.seq++
		receipt := "r-" + q.name + "-" + strconv.FormatInt(q.seq, 10)
		e.expiresAt = now.Add(visibility)
		q.inflight[receipt] = e
		out = append(out, Message{ID: e.id, Body: e.body, Receipt: receipt, Deliveries: e.deliveries})
	}
	q.visible = q.visible[n:]
	return out
}

// Delete acknowledges an in-flight message so it is never redelivered.
func (q *Queue) Delete(receipt string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reclaimLocked()
	if _, ok := q.inflight[receipt]; !ok {
		return ErrUnknownReceipt
	}
	delete(q.inflight, receipt)
	q.deleted++
	return nil
}

// DeleteBatch acknowledges several in-flight messages under one lock
// acquisition and reports how many were known. Unknown receipts are
// skipped (the at-least-once contract makes a double-delete harmless),
// so callers batching acks after a partial failure need no bookkeeping.
func (q *Queue) DeleteBatch(receipts []string) int {
	if len(receipts) == 0 {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reclaimLocked()
	n := 0
	for _, r := range receipts {
		if _, ok := q.inflight[r]; ok {
			delete(q.inflight, r)
			q.deleted++
			n++
		}
	}
	return n
}

// Stats reports cumulative sent and deleted counts.
func (q *Queue) Stats() (sent, deleted int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sent, q.deleted
}

// Drain receives and acknowledges every visible message, returning the
// bodies. Intended for tests and for shutdown paths.
func (q *Queue) Drain() [][]byte {
	var out [][]byte
	for {
		msgs := q.Receive(64, time.Hour)
		if len(msgs) == 0 {
			return out
		}
		for _, m := range msgs {
			out = append(out, m.Body)
			_ = q.Delete(m.Receipt)
		}
	}
}
