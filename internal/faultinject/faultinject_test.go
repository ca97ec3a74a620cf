package faultinject

import (
	"strings"
	"testing"
	"time"
)

func TestHash01RangeAndDeterminism(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for n := uint64(0); n < 200; n++ {
			v := Hash01(seed, "kind", "key", n)
			if v < 0 || v >= 1 {
				t.Fatalf("Hash01(%d, kind, key, %d) = %v out of [0, 1)", seed, n, v)
			}
			if v != Hash01(seed, "kind", "key", n) {
				t.Fatal("Hash01 not deterministic")
			}
		}
	}
	// Distinct inputs should not collapse to one value.
	if Hash01(1, "a", "b", 0) == Hash01(2, "a", "b", 0) &&
		Hash01(1, "a", "b", 1) == Hash01(2, "a", "b", 1) {
		t.Fatal("Hash01 ignores the seed")
	}
	// The separator byte keeps ("ab", "c") distinct from ("a", "bc").
	if Hash01(7, "ab", "c", 3) == Hash01(7, "a", "bc", 3) {
		t.Fatal("Hash01 concatenation ambiguity")
	}
}

func TestHash01RoughlyUniform(t *testing.T) {
	// Sanity check, not a statistical test: over 10k draws roughly half
	// should land below 0.5.
	below := 0
	const n = 10000
	for i := uint64(0); i < n; i++ {
		if Hash01(99, "uniform", "check", i) < 0.5 {
			below++
		}
	}
	if below < n*4/10 || below > n*6/10 {
		t.Fatalf("%d/%d draws below 0.5; distribution looks skewed", below, n)
	}
}

func TestInjectorDeterministicSchedule(t *testing.T) {
	run := func() []bool {
		inj := New(Config{
			Seed:          1234,
			DispatchError: Rule{Prob: 0.3},
		})
		var verdicts []bool
		for i := 0; i < 50; i++ {
			verdicts = append(verdicts, inj.DispatchFault("ep-a") != nil)
		}
		return verdicts
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs between identical runs", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("degenerate schedule: %d/%d fired at p=0.3", fired, len(a))
	}
}

func TestInjectorKeyIndependence(t *testing.T) {
	// The nth call for key X gets the same verdict regardless of how
	// calls to other keys interleave — the property that makes schedules
	// independent of goroutine ordering.
	seq := func(interleave bool) []bool {
		inj := New(Config{Seed: 7, DispatchError: Rule{Prob: 0.5}})
		var out []bool
		for i := 0; i < 30; i++ {
			if interleave {
				inj.DispatchFault("noise-ep") // extra traffic on another key
			}
			out = append(out, inj.DispatchFault("ep-x") != nil)
		}
		return out
	}
	plain, noisy := seq(false), seq(true)
	for i := range plain {
		if plain[i] != noisy[i] {
			t.Fatalf("verdict %d for ep-x changed when another key interleaved", i)
		}
	}
}

func TestInjectorMaxBudget(t *testing.T) {
	inj := New(Config{
		Seed:          5,
		DispatchError: Rule{Prob: 1, Max: 3},
	})
	fired := 0
	for i := 0; i < 100; i++ {
		if inj.DispatchFault("ep") != nil {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want exactly Max=3", fired)
	}
	if got := inj.Fired()[KindDispatchError]; got != 3 {
		t.Fatalf("Fired() reports %d, want 3", got)
	}
	if inj.TotalFired() != 3 {
		t.Fatalf("TotalFired() = %d, want 3", inj.TotalFired())
	}
}

func TestNilInjectorIsSafe(t *testing.T) {
	var inj *Injector
	if err := inj.DispatchFault("ep"); err != nil {
		t.Fatal(err)
	}
	if inj.HeartbeatDrop("ep") || inj.EndpointCrash("ep") {
		t.Fatal("nil injector fired")
	}
	if stall, err := inj.TransferFault("a", "b"); stall != 0 || err != nil {
		t.Fatalf("nil TransferFault = %v, %v", stall, err)
	}
	if panics, err := inj.ExtractFault("x", "g"); panics || err != nil {
		t.Fatalf("nil ExtractFault = %v, %v", panics, err)
	}
	if inj.Fired() != nil || inj.TotalFired() != 0 {
		t.Fatal("nil injector reports fired faults")
	}
	if inj.String() != "faultinject: disabled" {
		t.Fatalf("nil String() = %q", inj.String())
	}
}

func TestZeroProbNeverFires(t *testing.T) {
	inj := New(Config{Seed: 11}) // all rules zero
	for i := 0; i < 100; i++ {
		if inj.DispatchFault("ep") != nil || inj.HeartbeatDrop("ep") ||
			inj.EndpointCrash("ep") {
			t.Fatal("zero-probability rule fired")
		}
		if stall, err := inj.TransferFault("a", "b"); stall != 0 || err != nil {
			t.Fatal("zero-probability transfer fault fired")
		}
		if panics, err := inj.ExtractFault("x", "g"); panics || err != nil {
			t.Fatal("zero-probability extract fault fired")
		}
	}
	if inj.TotalFired() != 0 {
		t.Fatalf("TotalFired = %d, want 0", inj.TotalFired())
	}
}

func TestTransferFaultStallAndError(t *testing.T) {
	inj := New(Config{
		Seed:          3,
		TransferStall: Rule{Prob: 1, Max: 1},
		TransferError: Rule{Prob: 1, Max: 1},
		StallFor:      7 * time.Millisecond,
	})
	stall, err := inj.TransferFault("src", "dst")
	if stall != 7*time.Millisecond {
		t.Fatalf("stall = %s, want 7ms", stall)
	}
	if err == nil {
		t.Fatal("expected injected transfer error")
	}
	var fe *Error
	if !asFaultError(err, &fe) || fe.Kind != KindTransferError || fe.Key != "src->dst" {
		t.Fatalf("error = %#v", err)
	}
	// Budgets spent: the next job is clean.
	if stall, err := inj.TransferFault("src", "dst"); stall != 0 || err != nil {
		t.Fatalf("budget not honored: %v, %v", stall, err)
	}
}

// asFaultError is errors.As without the import, to keep the assertion
// explicit about the concrete type the hooks return.
func asFaultError(err error, out **Error) bool {
	fe, ok := err.(*Error)
	if ok {
		*out = fe
	}
	return ok
}

func TestExtractFaultPanicPrecedence(t *testing.T) {
	inj := New(Config{
		Seed:         1,
		ExtractPanic: Rule{Prob: 1, Max: 1},
		ExtractError: Rule{Prob: 1, Max: 1},
	})
	panics, err := inj.ExtractFault("keyword", "g1")
	if !panics || err != nil {
		t.Fatalf("first fault = (%v, %v), want panic", panics, err)
	}
	panics, err = inj.ExtractFault("keyword", "g1")
	if panics || err == nil {
		t.Fatalf("second fault = (%v, %v), want error", panics, err)
	}
}

func TestInjectorString(t *testing.T) {
	inj := New(Config{Seed: 77, HeartbeatDrop: Rule{Prob: 1, Max: 2}})
	inj.HeartbeatDrop("ep")
	inj.HeartbeatDrop("ep")
	s := inj.String()
	if !strings.Contains(s, "seed=77") || !strings.Contains(s, "heartbeat_drop=2") {
		t.Fatalf("String() = %q", s)
	}
}

func TestDefaultStallDuration(t *testing.T) {
	inj := New(Config{Seed: 1, TransferStall: Rule{Prob: 1, Max: 1}})
	stall, _ := inj.TransferFault("a", "b")
	if stall != 5*time.Millisecond {
		t.Fatalf("default stall = %s, want 5ms", stall)
	}
}
