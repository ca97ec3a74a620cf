package faas

import (
	"context"
	"testing"

	"xtract/internal/clock"
)

// BenchmarkSubmitWaitRoundTrip measures the live fabric's per-task
// overhead with no handler work — the floor under real extractions.
func BenchmarkSubmitWaitRoundTrip(b *testing.B) {
	clk := clock.NewReal()
	svc := NewService(clk, Costs{})
	ep := NewEndpoint("bench", 4, clk)
	svc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ep.Start(ctx); err != nil {
		b.Fatal(err)
	}
	fid, _ := svc.RegisterFunction("noop", func(context.Context, []byte) ([]byte, error) {
		return nil, nil
	}, "")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ended(b, svc, submit(b, svc, TaskRequest{FunctionID: fid, EndpointID: "bench"}))
	}
}

// BenchmarkBatchSubmit measures amortized batched submission.
func BenchmarkBatchSubmit(b *testing.B) {
	clk := clock.NewReal()
	svc := NewService(clk, Costs{})
	ep := NewEndpoint("bench", 8, clk)
	svc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ep.Start(ctx); err != nil {
		b.Fatal(err)
	}
	fid, _ := svc.RegisterFunction("noop", func(context.Context, []byte) ([]byte, error) {
		return nil, nil
	}, "")
	reqs := make([]TaskRequest, 64)
	for i := range reqs {
		reqs[i] = TaskRequest{FunctionID: fid, EndpointID: "bench"}
	}
	sink := NewCompletionSink()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, err := svc.SubmitBatch(reqs)
		if err != nil {
			b.Fatal(err)
		}
		svc.Notify(ids, sink)
		collect(b, sink, len(ids))
	}
	b.ReportMetric(64, "tasks/op")
}
