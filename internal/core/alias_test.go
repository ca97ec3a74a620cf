package core

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/faas"
	"xtract/internal/queue"
)

// scribble overwrites the buffer's full capacity, emulating a producer
// that encodes its next body into the bytes it has just sent.
func scribble(b []byte) {
	s := b[:cap(b)]
	for j := range s {
		s[j] = 'X'
	}
}

// TestPooledPayloadNotAliasedByQueue: queue.SendBatch copies every body,
// so a producer may encode its next message into the buffer it has just
// sent without corrupting the queued ones.
func TestPooledPayloadNotAliasedByQueue(t *testing.T) {
	q := queue.New("alias", clock.NewReal())
	tp := taskPayload{Extractor: "keyword",
		Steps: []stepPayload{{FamilyID: "f", GroupID: "g", Files: []string{"/a"}}}}

	const rounds = 200
	want := encodeTaskPayload(nil, &tp)
	var buf []byte
	for i := 0; i < rounds; i++ {
		buf = encodeTaskPayload(buf[:0], &tp)
		q.SendBatch([][]byte{buf})
		scribble(buf)
	}
	var got [][]byte
	for len(got) < rounds {
		msgs := q.Receive(64, time.Minute)
		for _, m := range msgs {
			got = append(got, m.Body)
			_ = q.Delete(m.Receipt)
		}
	}
	for i := range got {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("message %d corrupted by the producer's next encode:\ngot:  %s\nwant: %s",
				i, got[i], want)
		}
	}
}

// TestPooledPayloadNotAliasedByFaaS: faas.SubmitBatch keeps the payload it
// is given, and each task's payload is a slice of its own that nobody
// writes after submission, so workers read every payload intact while the
// producer goes on encoding the next ones. Run under -race, a payload
// written after its hand-off would trip the detector.
func TestPooledPayloadNotAliasedByFaaS(t *testing.T) {
	clk := clock.NewReal()
	svc := faas.NewService(clk, faas.Costs{})
	ep := faas.NewEndpoint("ep1", 2, clk)
	svc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var seen [][]byte
	fid, err := svc.RegisterFunction("capture", func(_ context.Context, payload []byte) ([]byte, error) {
		mu.Lock()
		seen = append(seen, append([]byte(nil), payload...))
		mu.Unlock()
		return []byte("ok"), nil
	}, "")
	if err != nil {
		t.Fatal(err)
	}

	tp := taskPayload{Extractor: "keyword",
		Steps: []stepPayload{{FamilyID: "f", GroupID: "g", Files: []string{"/a"}}}}
	want := encodeTaskPayload(nil, &tp)
	const rounds = 100
	sink := faas.NewCompletionSink()
	for i := 0; i < rounds; i++ {
		ids, err := svc.SubmitBatch([]faas.TaskRequest{
			{FunctionID: fid, EndpointID: "ep1", Payload: encodeTaskPayload(make([]byte, 0, len(want)), &tp)}})
		if err != nil {
			t.Fatal(err)
		}
		svc.Notify(ids, sink)
	}
	for ends, deadline := 0, time.After(10*time.Second); ends < rounds; {
		select {
		case <-sink.Ready():
			ends += len(sink.Drain())
		case <-deadline:
			t.Fatalf("%d of %d tasks ended", ends, rounds)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != rounds {
		t.Fatalf("handler saw %d payloads, want %d", len(seen), rounds)
	}
	for i, p := range seen {
		if !bytes.Equal(p, want) {
			t.Fatalf("payload %d corrupted after its hand-off:\ngot:  %s\nwant: %s",
				i, p, want)
		}
	}
}
