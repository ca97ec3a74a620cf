package faas

import (
	"context"
	"strings"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/faultinject"
)

func TestInjectedDispatchFaultMarksTaskLost(t *testing.T) {
	svc, _, cancel := newLiveService(t, 2)
	defer cancel()
	svc.SetFaults(faultinject.New(faultinject.Config{
		Seed:          1,
		DispatchError: faultinject.Rule{Prob: 1, Max: 1},
	}))
	fid, err := svc.RegisterFunction("echo", echoHandler, "")
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.Poll(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != TaskLost {
		t.Fatalf("status = %s, want LOST", info.Status)
	}
	if !strings.Contains(info.Err, "dispatch_error") {
		t.Fatalf("lost task err = %q, want injected dispatch_error", info.Err)
	}
	// Budget spent: the next submit dispatches normally.
	id2, err := svc.Submit(TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	info2, err := svc.Wait(id2)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Status != TaskSuccess {
		t.Fatalf("post-budget status = %s, want SUCCESS", info2.Status)
	}
}

func TestHandlerPanicBecomesTaskFailed(t *testing.T) {
	svc, ep, cancel := newLiveService(t, 1)
	defer cancel()
	calls := 0
	fid, err := svc.RegisterFunction("flaky", func(context.Context, []byte) ([]byte, error) {
		calls++
		if calls == 1 {
			panic("kaboom")
		}
		return []byte("ok"), nil
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: nil})
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != TaskFailed {
		t.Fatalf("status = %s, want FAILED", info.Status)
	}
	if !strings.Contains(info.Err, "panic") {
		t.Fatalf("err = %q, want panic message", info.Err)
	}
	if svc.HandlerPanics.Load() != 1 {
		t.Fatalf("HandlerPanics = %d, want 1", svc.HandlerPanics.Load())
	}
	// The worker survived the panic: the endpoint still executes tasks.
	if ep.Stopped() {
		t.Fatal("endpoint stopped after a handler panic")
	}
	id2, err := svc.Submit(TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: nil})
	if err != nil {
		t.Fatal(err)
	}
	info2, err := svc.Wait(id2)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Status != TaskSuccess || string(info2.Result) != "ok" {
		t.Fatalf("post-panic task = %+v", info2)
	}
}

func TestInjectedHeartbeatSilenceMarksTasksLost(t *testing.T) {
	clk := clock.NewReal()
	svc := NewService(clk, Costs{})
	svc.HeartbeatTimeout = 20 * time.Millisecond
	// Silence every heartbeat so the endpoint's liveness record goes
	// stale and CheckHeartbeats declares the allocation dead.
	svc.SetFaults(faultinject.New(faultinject.Config{
		Seed:          1,
		HeartbeatDrop: faultinject.Rule{Prob: 1},
	}))
	ep := NewEndpoint("ep1", 1, clk)
	svc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// A slow task keeps the worker busy past the heartbeat window.
	block := make(chan struct{})
	fid, err := svc.RegisterFunction("slow", func(context.Context, []byte) ([]byte, error) {
		<-block
		return nil, nil
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: nil})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if lost := svc.CheckHeartbeats(); len(lost) > 0 {
			if lost[0] != "ep1" {
				t.Fatalf("lost endpoints = %v", lost)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("CheckHeartbeats never declared the silenced endpoint lost")
		}
		time.Sleep(time.Millisecond)
	}
	info, err := svc.Poll(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != TaskLost {
		t.Fatalf("status = %s, want LOST after heartbeat expiry", info.Status)
	}
	close(block)
}

func TestInjectedEndpointCrashStopsEndpoint(t *testing.T) {
	clk := clock.NewReal()
	svc := NewService(clk, Costs{})
	svc.HeartbeatTimeout = 3 * time.Millisecond // fast heartbeat ticks
	svc.SetFaults(faultinject.New(faultinject.Config{
		Seed:          1,
		EndpointCrash: faultinject.Rule{Prob: 1, Max: 1},
	}))
	ep := NewEndpoint("ep1", 1, clk)
	svc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !ep.Stopped() {
		if time.Now().After(deadline) {
			t.Fatal("injected crash never stopped the endpoint")
		}
		time.Sleep(time.Millisecond)
	}
}
