// Package faultinject implements a deterministic, seed-driven fault plan
// for chaos-testing the Xtract pipeline. An Injector decides, at small
// hook points wired through internal/faas, internal/transfer and
// internal/extractors, whether to inject an endpoint crash, a silenced
// heartbeat, a task dispatch error, a transfer stall or failure, an
// extractor error or panic, or a slow execution.
//
// Every decision is a pure function of (seed, fault kind, decision key,
// per-key call index) — no wall clock, no shared PRNG stream — so the
// fault schedule a seed produces does not depend on goroutine
// interleaving: the nth dispatch to endpoint X always gets the same
// verdict for a given seed, regardless of what other hooks fired around
// it. Rules carry an optional budget (Max) so injected chaos quiesces
// and every run can converge.
//
// The Injector structurally satisfies the hook interfaces the consumer
// packages declare (faas.FaultHook, transfer.FaultHook,
// extractors.FaultHook) without importing them. A nil *Injector is a
// valid no-op: every method is nil-safe, following the nil-handle
// convention of internal/obs.
package faultinject

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind names one injectable fault class.
type Kind string

// Fault kinds, one per hook point.
const (
	KindEndpointCrash Kind = "endpoint_crash"
	KindHeartbeatDrop Kind = "heartbeat_drop"
	KindDispatchError Kind = "dispatch_error"
	KindTransferError Kind = "transfer_error"
	KindTransferStall Kind = "transfer_stall"
	KindExtractError  Kind = "extract_error"
	KindExtractPanic  Kind = "extract_panic"
	KindSlow          Kind = "slow"
)

// Rule configures one fault class.
type Rule struct {
	// Prob is the probability in [0, 1] that a decision point fires.
	Prob float64
	// Max bounds how many times the rule may fire across the run;
	// values <= 0 mean unlimited. Bounded rules guarantee the injected
	// chaos eventually quiesces.
	Max int
}

// Config is a complete fault plan: one seed plus one rule per kind.
type Config struct {
	// Seed drives every decision. The same seed and the same per-key
	// call sequences reproduce the same schedule.
	Seed int64

	// EndpointCrash stops a FaaS endpoint (allocation loss) at a
	// heartbeat tick.
	EndpointCrash Rule
	// HeartbeatDrop silences one endpoint heartbeat, driving the
	// service's lost-task detection once enough beats are missed.
	HeartbeatDrop Rule
	// DispatchError fails the service→endpoint delivery of one task,
	// marking it lost.
	DispatchError Rule
	// TransferError fails one batch transfer job.
	TransferError Rule
	// TransferStall delays one batch transfer job by StallFor.
	TransferStall Rule
	// StallFor is the injected stall duration (default 5ms).
	StallFor time.Duration
	// ExtractError fails one extraction step before the extractor runs.
	ExtractError Rule
	// ExtractPanic crashes one extraction step with a panic, exercising
	// the FaaS worker's panic recovery.
	ExtractPanic Rule
	// Slow stretches one task execution at an endpoint worker by SlowFor —
	// the deterministic straggler model behind the tail-latency scenarios.
	// Unlike the other kinds it injects latency, not failure: the task
	// still runs and completes.
	Slow Rule
	// SlowFor is the injected execution delay (default 50ms).
	SlowFor time.Duration
}

// Error is the error value injected for dispatch, transfer, and extract
// faults, carrying the kind and decision key for assertions and logs.
type Error struct {
	Kind Kind
	Key  string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected %s (%s)", e.Kind, e.Key)
}

type callKey struct {
	kind Kind
	key  string
}

// Injector evaluates a Config at hook points. Safe for concurrent use;
// a nil *Injector never fires.
type Injector struct {
	cfg Config

	mu    sync.Mutex
	calls map[callKey]uint64
	fired map[Kind]int
}

// New returns an injector for the given plan.
func New(cfg Config) *Injector {
	if cfg.StallFor <= 0 {
		cfg.StallFor = 5 * time.Millisecond
	}
	if cfg.SlowFor <= 0 {
		cfg.SlowFor = 50 * time.Millisecond
	}
	return &Injector{
		cfg:   cfg,
		calls: make(map[callKey]uint64),
		fired: make(map[Kind]int),
	}
}

// fire evaluates one decision point: the per-(kind, key) call counter is
// advanced and the verdict is Hash01(seed, kind, key, n) < rule.Prob,
// subject to the rule's remaining budget.
func (i *Injector) fire(kind Kind, rule Rule, key string) bool {
	if i == nil || rule.Prob <= 0 {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	ck := callKey{kind, key}
	n := i.calls[ck]
	i.calls[ck] = n + 1
	if rule.Max > 0 && i.fired[kind] >= rule.Max {
		return false
	}
	if Hash01(i.cfg.Seed, string(kind), key, n) >= rule.Prob {
		return false
	}
	i.fired[kind]++
	return true
}

// DispatchFault implements faas.FaultHook.
func (i *Injector) DispatchFault(endpointID string) error {
	if i == nil {
		return nil
	}
	if i.fire(KindDispatchError, i.cfg.DispatchError, endpointID) {
		return &Error{Kind: KindDispatchError, Key: endpointID}
	}
	return nil
}

// HeartbeatDrop implements faas.FaultHook.
func (i *Injector) HeartbeatDrop(endpointID string) bool {
	if i == nil {
		return false
	}
	return i.fire(KindHeartbeatDrop, i.cfg.HeartbeatDrop, endpointID)
}

// EndpointCrash implements faas.FaultHook.
func (i *Injector) EndpointCrash(endpointID string) bool {
	if i == nil {
		return false
	}
	return i.fire(KindEndpointCrash, i.cfg.EndpointCrash, endpointID)
}

// TransferFault implements transfer.FaultHook. Stalls and errors are
// decided independently, so a job may stall, fail, or both.
func (i *Injector) TransferFault(src, dst string) (time.Duration, error) {
	if i == nil {
		return 0, nil
	}
	key := src + "->" + dst
	var stall time.Duration
	if i.fire(KindTransferStall, i.cfg.TransferStall, key) {
		stall = i.cfg.StallFor
	}
	if i.fire(KindTransferError, i.cfg.TransferError, key) {
		return stall, &Error{Kind: KindTransferError, Key: key}
	}
	return stall, nil
}

// SlowFault implements faas.FaultHook: a fired decision returns the
// extra execution latency to inject into one task on the endpoint; zero
// means the task runs at full speed.
func (i *Injector) SlowFault(endpointID string) time.Duration {
	if i == nil {
		return 0
	}
	if i.fire(KindSlow, i.cfg.Slow, endpointID) {
		return i.cfg.SlowFor
	}
	return 0
}

// ExtractFault implements extractors.FaultHook.
func (i *Injector) ExtractFault(extractor, groupID string) (bool, error) {
	if i == nil {
		return false, nil
	}
	key := extractor + "/" + groupID
	if i.fire(KindExtractPanic, i.cfg.ExtractPanic, key) {
		return true, nil
	}
	if i.fire(KindExtractError, i.cfg.ExtractError, key) {
		return false, &Error{Kind: KindExtractError, Key: key}
	}
	return false, nil
}

// Fired reports how many times each kind has fired so far.
func (i *Injector) Fired() map[Kind]int {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make(map[Kind]int, len(i.fired))
	for k, v := range i.fired {
		out[k] = v
	}
	return out
}

// TotalFired reports the total number of injected faults.
func (i *Injector) TotalFired() int {
	total := 0
	for _, v := range i.Fired() {
		total += v
	}
	return total
}

// String summarizes the plan and what has fired, for "reproduce with
// seed N" test logs.
func (i *Injector) String() string {
	if i == nil {
		return "faultinject: disabled"
	}
	fired := i.Fired()
	kinds := make([]string, 0, len(fired))
	for k := range fired {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, fired[Kind(k)]))
	}
	return fmt.Sprintf("faultinject: seed=%d fired{%s}", i.cfg.Seed, strings.Join(parts, " "))
}

// Hash01 maps (seed, parts..., n) to a uniform float64 in [0, 1) via
// FNV-1a. Exported so retry jitter and tests can share the same
// clock-free deterministic source.
func Hash01(seed int64, kind, key string, n uint64) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		mix(byte(uint64(seed) >> (8 * i)))
	}
	for i := 0; i < len(kind); i++ {
		mix(kind[i])
	}
	mix(0xff)
	for i := 0; i < len(key); i++ {
		mix(key[i])
	}
	mix(0xff)
	for i := 0; i < 8; i++ {
		mix(byte(n >> (8 * i)))
	}
	// Top 53 bits give a float64 with full mantissa precision.
	return float64(h>>11) / float64(1<<53)
}
