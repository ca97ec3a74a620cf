package queue

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"xtract/internal/clock"
)

func newTestQueue() (*Queue, *clock.Fake) {
	clk := clock.NewFake(time.Unix(0, 0))
	return New("test", clk), clk
}

// send enqueues one message and returns its ID.
func send(q *Queue, body []byte) string { return q.SendBatch([][]byte{body})[0] }

// depth reports the visible and in-flight message counts, as the next
// Receive would find them.
func depth(q *Queue) (visible, inflight int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reclaimLocked()
	return len(q.visible), len(q.inflight)
}

func TestSendReceiveDelete(t *testing.T) {
	q, _ := newTestQueue()
	id := send(q, []byte("hello"))
	if id == "" {
		t.Fatal("empty message id")
	}
	msgs := q.Receive(10, time.Minute)
	if len(msgs) != 1 {
		t.Fatalf("got %d messages, want 1", len(msgs))
	}
	if string(msgs[0].Body) != "hello" {
		t.Fatalf("body = %q", msgs[0].Body)
	}
	if msgs[0].Deliveries != 1 {
		t.Fatalf("deliveries = %d, want 1", msgs[0].Deliveries)
	}
	if err := q.Delete(msgs[0].Receipt); err != nil {
		t.Fatal(err)
	}
	if v, f := depth(q); v != 0 || f != 0 {
		t.Fatal("queue not empty after delete")
	}
}

func TestFIFOOrder(t *testing.T) {
	q, _ := newTestQueue()
	for i := 0; i < 5; i++ {
		send(q, []byte(fmt.Sprintf("m%d", i)))
	}
	msgs := q.Receive(5, time.Minute)
	for i, m := range msgs {
		if want := fmt.Sprintf("m%d", i); string(m.Body) != want {
			t.Fatalf("msg[%d] = %q, want %q", i, m.Body, want)
		}
	}
}

func TestVisibilityTimeoutRedelivers(t *testing.T) {
	q, clk := newTestQueue()
	send(q, []byte("x"))
	msgs := q.Receive(1, 30*time.Second)
	if len(msgs) != 1 {
		t.Fatal("expected one message")
	}
	// Before the timeout the message is invisible.
	if got := q.Receive(1, time.Second); got != nil {
		t.Fatal("message visible during visibility window")
	}
	clk.Advance(31 * time.Second)
	again := q.Receive(1, time.Second)
	if len(again) != 1 {
		t.Fatal("message not redelivered after timeout")
	}
	if again[0].Deliveries != 2 {
		t.Fatalf("deliveries = %d, want 2", again[0].Deliveries)
	}
	// The old receipt is now invalid.
	if err := q.Delete(msgs[0].Receipt); err != ErrUnknownReceipt {
		t.Fatalf("stale receipt delete err = %v, want ErrUnknownReceipt", err)
	}
}

func TestSendBatch(t *testing.T) {
	q, _ := newTestQueue()
	ids := q.SendBatch([][]byte{[]byte("a"), []byte("b"), []byte("c")})
	if len(ids) != 3 {
		t.Fatalf("ids = %d", len(ids))
	}
	if v, _ := depth(q); v != 3 {
		t.Fatalf("visible = %d", v)
	}
}

func TestReceiveMaxZero(t *testing.T) {
	q, _ := newTestQueue()
	send(q, []byte("a"))
	if got := q.Receive(0, time.Minute); got != nil {
		t.Fatal("Receive(0) should return nil")
	}
}

func TestStats(t *testing.T) {
	q, _ := newTestQueue()
	send(q, []byte("a"))
	send(q, []byte("b"))
	m := q.Receive(1, time.Minute)[0]
	_ = q.Delete(m.Receipt)
	sent, deleted := q.Stats()
	if sent != 2 || deleted != 1 {
		t.Fatalf("Stats = %d,%d want 2,1", sent, deleted)
	}
}

func TestDrain(t *testing.T) {
	q, _ := newTestQueue()
	for i := 0; i < 100; i++ {
		send(q, []byte{byte(i)})
	}
	bodies := q.Drain()
	if len(bodies) != 100 {
		t.Fatalf("drained %d, want 100", len(bodies))
	}
	if v, f := depth(q); v != 0 || f != 0 {
		t.Fatal("queue not empty after drain")
	}
}

func TestBodyIsCopied(t *testing.T) {
	q, _ := newTestQueue()
	b := []byte("mutate-me")
	send(q, b)
	b[0] = 'X'
	m := q.Receive(1, time.Minute)[0]
	if string(m.Body) != "mutate-me" {
		t.Fatalf("queue aliased caller's buffer: %q", m.Body)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	q := New("conc", clock.NewReal())
	const producers, perProducer = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				send(q, []byte("m"))
			}
		}()
	}
	var got Counter
	var cwg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				msgs := q.Receive(16, time.Minute)
				for _, m := range msgs {
					if err := q.Delete(m.Receipt); err != nil {
						t.Error(err)
					}
					got.Inc()
				}
				if len(msgs) == 0 {
					select {
					case <-done:
						return
					default:
					}
				}
			}
		}()
	}
	wg.Wait()
	for got.Value() < producers*perProducer {
		time.Sleep(time.Millisecond)
	}
	close(done)
	cwg.Wait()
	if got.Value() != producers*perProducer {
		t.Fatalf("consumed %d, want %d", got.Value(), producers*perProducer)
	}
}

// Counter is a tiny local atomic counter to avoid importing metrics here.
type Counter struct {
	mu sync.Mutex
	v  int64
}

func (c *Counter) Inc() { c.mu.Lock(); c.v++; c.mu.Unlock() }
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

func TestAtLeastOnceNoLoss(t *testing.T) {
	// Property: for any send count and receive batch size, draining the
	// queue recovers every message exactly once when every receive is acked.
	f := func(n, batch uint8) bool {
		if batch == 0 {
			batch = 1
		}
		q, _ := newTestQueue()
		for i := 0; i < int(n); i++ {
			send(q, []byte{byte(i)})
		}
		seen := 0
		for {
			msgs := q.Receive(int(batch), time.Hour)
			if len(msgs) == 0 {
				break
			}
			for _, m := range msgs {
				if err := q.Delete(m.Receipt); err != nil {
					return false
				}
				seen++
			}
		}
		return seen == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteBatchSkipsStaleReceiptAfterRedelivery(t *testing.T) {
	// Regression for the duplicate-completion race: a consumer holds a
	// message past its visibility timeout, the queue redelivers it to a
	// second consumer under a fresh receipt, and then BOTH consumers ack.
	// The first consumer's stale receipt must be a no-op — acknowledging
	// it must not delete (or double-count) the redelivered copy.
	q, clk := newTestQueue()
	send(q, []byte("fam"))

	first := q.Receive(1, 10*time.Second)
	if len(first) != 1 {
		t.Fatal("expected one message")
	}
	clk.Advance(11 * time.Second)

	second := q.Receive(1, 10*time.Second)
	if len(second) != 1 {
		t.Fatal("message not redelivered after visibility expiry")
	}
	if second[0].Deliveries != 2 {
		t.Fatalf("deliveries = %d, want 2", second[0].Deliveries)
	}
	if second[0].Receipt == first[0].Receipt {
		t.Fatal("redelivery reused the expired receipt")
	}

	// The slow consumer acks late with its dead receipt: skipped, and the
	// live redelivery stays in flight.
	if n := q.DeleteBatch([]string{first[0].Receipt}); n != 0 {
		t.Fatalf("stale DeleteBatch acked %d messages, want 0", n)
	}
	if _, f := depth(q); f != 1 {
		t.Fatalf("inflight = %d after stale ack, want 1", f)
	}

	// The second consumer's ack completes the message exactly once.
	if n := q.DeleteBatch([]string{second[0].Receipt}); n != 1 {
		t.Fatalf("fresh DeleteBatch acked %d messages, want 1", n)
	}
	if v, f := depth(q); v != 0 || f != 0 {
		t.Fatalf("queue not drained: visible=%d inflight=%d", v, f)
	}

	// A mixed batch (stale + fresh) counts only the known receipt.
	send(q, []byte("fam2"))
	m1 := q.Receive(1, time.Second)
	clk.Advance(2 * time.Second)
	m2 := q.Receive(1, time.Minute)
	if len(m1) != 1 || len(m2) != 1 {
		t.Fatal("setup failed")
	}
	if n := q.DeleteBatch([]string{m1[0].Receipt, m2[0].Receipt}); n != 1 {
		t.Fatalf("mixed DeleteBatch = %d, want 1", n)
	}
	if v, f := depth(q); v != 0 || f != 0 {
		t.Fatal("queue not drained after mixed batch")
	}
}

func TestDeleteBatch(t *testing.T) {
	q, _ := newTestQueue()
	for i := 0; i < 5; i++ {
		send(q, []byte(fmt.Sprintf("m%d", i)))
	}
	msgs := q.Receive(5, time.Minute)
	if len(msgs) != 5 {
		t.Fatalf("received %d, want 5", len(msgs))
	}
	receipts := make([]string, 0, len(msgs))
	for _, m := range msgs {
		receipts = append(receipts, m.Receipt)
	}
	receipts = append(receipts, "r-bogus-999") // unknown receipts are skipped
	if n := q.DeleteBatch(receipts); n != 5 {
		t.Fatalf("DeleteBatch acknowledged %d, want 5", n)
	}
	if v, f := depth(q); v != 0 || f != 0 {
		t.Fatalf("queue not empty after batch delete: visible=%d inflight=%d", v, f)
	}
	_, deleted := q.Stats()
	if deleted != 5 {
		t.Fatalf("deleted stat = %d, want 5", deleted)
	}
	if n := q.DeleteBatch(receipts); n != 0 {
		t.Fatalf("double DeleteBatch acknowledged %d, want 0", n)
	}
}
