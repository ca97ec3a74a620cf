package queue

import (
	"testing"
	"time"

	"xtract/internal/clock"
)

func BenchmarkSendReceiveDelete(b *testing.B) {
	q := New("bench", clock.NewReal())
	body := [][]byte{make([]byte, 256)}
	b.SetBytes(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.SendBatch(body)
		msgs := q.Receive(1, time.Minute)
		_ = q.Delete(msgs[0].Receipt)
	}
}

func BenchmarkBatchedThroughput(b *testing.B) {
	q := New("bench", clock.NewReal())
	bodies := make([][]byte, 64)
	for i := range bodies {
		bodies[i] = make([]byte, 256)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.SendBatch(bodies)
		for {
			msgs := q.Receive(64, time.Minute)
			if len(msgs) == 0 {
				break
			}
			for _, m := range msgs {
				_ = q.Delete(m.Receipt)
			}
		}
	}
}
