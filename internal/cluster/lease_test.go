package cluster

// lease_test.go is the fake-clock lease suite: expiry exactly at the
// TTL boundary, renewal heartbeats racing expiry under the race
// detector, split-brain rejection via fencing epochs, epoch
// monotonicity across release/re-acquire, ring stability under
// membership change, and lease records replaying through the journal.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/journal"
)

// recAppender records journaled lease transitions for assertions.
type recAppender struct {
	mu   sync.Mutex
	recs []journal.Record
}

func (r *recAppender) Append(rec journal.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, rec)
	return nil
}

func (r *recAppender) all() []journal.Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]journal.Record(nil), r.recs...)
}

// TestLeaseExpiryExactlyAtTTL pins the boundary: a lease is live for
// strictly less than its TTL — at exactly TTL past acquisition it is
// expired, renewal is fenced, and another node may acquire.
func TestLeaseExpiryExactlyAtTTL(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	c := NewCoordinator(Options{Clock: clk, LeaseTTL: 10 * time.Second})
	l, err := c.Acquire("job-1", "a", 0)
	if err != nil {
		t.Fatal(err)
	}

	clk.Advance(10*time.Second - time.Nanosecond)
	if !c.Valid("job-1", "a", l.Epoch) {
		t.Fatal("lease dead one nanosecond before TTL")
	}
	if _, err := c.Acquire("job-1", "b", 0); !errors.Is(err, ErrHeld) {
		t.Fatalf("acquire against a live lease: %v", err)
	}

	clk.Advance(time.Nanosecond) // now == acquisition + TTL exactly
	if c.Valid("job-1", "a", l.Epoch) {
		t.Fatal("lease still valid at exactly TTL")
	}
	if _, ok := c.Holder("job-1"); ok {
		t.Fatal("expired lease still reported as held")
	}
	if _, err := c.Renew(l); !errors.Is(err, ErrFenced) {
		t.Fatalf("renewal of an expired lease: %v", err)
	}
	bl, err := c.Acquire("job-1", "b", 0)
	if err != nil {
		t.Fatalf("acquire after expiry: %v", err)
	}
	if bl.Epoch <= l.Epoch {
		t.Fatalf("successor epoch %d not past predecessor %d", bl.Epoch, l.Epoch)
	}
}

// TestRenewalRacingExpiry runs a renewal heartbeat goroutine against
// clock advances that straddle the TTL. Whatever the interleaving, the
// renewer either extends its live lease or is fenced — and once a
// successor acquires, the old lessee can never renew or release again.
func TestRenewalRacingExpiry(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	const ttl = 100 * time.Millisecond
	c := NewCoordinator(Options{Clock: clk, LeaseTTL: ttl})
	l, err := c.Acquire("job-1", "a", 0)
	if err != nil {
		t.Fatal(err)
	}

	fenced := make(chan struct{})
	go func() {
		cur := l
		for {
			nl, err := c.Renew(cur)
			if err != nil {
				close(fenced)
				return
			}
			cur = nl
		}
	}()

	// Sub-TTL advances: the heartbeat races each step; the lease may
	// survive or lapse depending on scheduling, both are legal.
	for i := 0; i < 50; i++ {
		clk.Advance(ttl / 4)
	}
	// A single jump past the TTL kills any lease unrenewed since the
	// jump; the renewer cannot resurrect it (renewal checks expiry
	// against the same clock), so acquisition by b must eventually win.
	var bl Lease
	for {
		clk.Advance(2 * ttl)
		if bl, err = c.Acquire("job-1", "b", 0); err == nil {
			break
		}
	}
	<-fenced // the old heartbeat must observe ErrFenced

	if c.Valid("job-1", "a", l.Epoch) {
		t.Fatal("fenced lessee still validates")
	}
	if !c.Valid("job-1", "b", bl.Epoch) {
		t.Fatal("successor lease not valid")
	}
	if _, err := c.Renew(l); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale renew: %v", err)
	}
	if err := c.Release(l); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale release freed the successor's lease: %v", err)
	}
	if h, ok := c.Holder("job-1"); !ok || h.Node != "b" {
		t.Fatalf("holder = %+v, %v; want b", h, ok)
	}
}

// TestSplitBrainFencing walks the split-brain script against the
// journal: A owns and renews, goes silent past the TTL, B adopts with
// the journaled epoch as floor — every record A could still write
// carries a dead epoch, and the journaled transition log shows the
// monotone epoch history.
func TestSplitBrainFencing(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	jnl := &recAppender{}
	c := NewCoordinator(Options{Clock: clk, LeaseTTL: time.Second, Journal: jnl})

	al, err := c.Acquire("job-1", "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(500 * time.Millisecond)
	if al, err = c.Renew(al); err != nil {
		t.Fatal(err)
	}

	clk.Advance(2 * time.Second) // A goes dark past the TTL
	bl, err := c.Acquire("job-1", "b", al.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if bl.Epoch <= al.Epoch {
		t.Fatalf("adoption epoch %d does not fence journaled epoch %d", bl.Epoch, al.Epoch)
	}

	// A wakes up: every path is fenced.
	if _, err := c.Renew(al); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie renew: %v", err)
	}
	if err := c.Release(al); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie release: %v", err)
	}
	if c.Valid("job-1", "a", al.Epoch) {
		t.Fatal("zombie epoch validates")
	}
	if err := c.Release(bl); err != nil {
		t.Fatal(err)
	}

	want := []struct {
		typ   string
		node  string
		epoch int64
	}{
		{journal.RecLeaseAcquired, "a", al.Epoch},
		{journal.RecLeaseRenewed, "a", al.Epoch},
		{journal.RecLeaseAcquired, "b", bl.Epoch},
		{journal.RecLeaseReleased, "b", bl.Epoch},
	}
	recs := jnl.all()
	if len(recs) != len(want) {
		t.Fatalf("journaled %d lease records, want %d: %+v", len(recs), len(want), recs)
	}
	for i, w := range want {
		if recs[i].Type != w.typ || recs[i].Node != w.node || recs[i].Epoch != w.epoch {
			t.Fatalf("record %d = %+v, want %+v", i, recs[i], w)
		}
	}
}

// TestEpochMonotonicAcrossRelease pins that fencing epochs only grow,
// through releases, re-acquisitions, and explicit floors.
func TestEpochMonotonicAcrossRelease(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	c := NewCoordinator(Options{Clock: clk, LeaseTTL: time.Second})
	seen := int64(0)
	for i := 0; i < 5; i++ {
		node := "a"
		if i%2 == 1 {
			node = "b"
		}
		l, err := c.Acquire("job-1", node, 0)
		if err != nil {
			t.Fatal(err)
		}
		if l.Epoch <= seen {
			t.Fatalf("epoch %d not past %d", l.Epoch, seen)
		}
		seen = l.Epoch
		if err := c.Release(l); err != nil {
			t.Fatal(err)
		}
	}
	l, err := c.Acquire("job-1", "a", seen+10)
	if err != nil {
		t.Fatal(err)
	}
	if l.Epoch != seen+11 {
		t.Fatalf("floored epoch = %d, want %d", l.Epoch, seen+11)
	}
}

// TestRingStability pins the consistent-hash property the failover
// design rests on: removing one node remaps only that node's keys.
func TestRingStability(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	c := NewCoordinator(Options{Clock: clk}) // HeartbeatTTL 0: static membership
	c.Join("n1", "")
	c.Join("n2", "")
	c.Join("n3", "")

	keys := make([]string, 300)
	before := make([]string, len(keys))
	counts := map[string]int{}
	for i := range keys {
		keys[i] = "job-" + string(rune('a'+i%26)) + "-" + time.Unix(int64(i), 0).String()
		id, _, ok := c.Owner(keys[i])
		if !ok {
			t.Fatal("no owner on a populated ring")
		}
		before[i] = id
		counts[id]++
	}
	for _, n := range []string{"n1", "n2", "n3"} {
		if counts[n] == 0 {
			t.Fatalf("node %s owns nothing: %v", n, counts)
		}
	}

	c.Leave("n2")
	for i, k := range keys {
		id, _, ok := c.Owner(k)
		if !ok {
			t.Fatal("no owner after leave")
		}
		if before[i] != "n2" && id != before[i] {
			t.Fatalf("key %q moved %s -> %s though its owner survived", k, before[i], id)
		}
		if id == "n2" {
			t.Fatalf("key %q still owned by the departed node", k)
		}
	}
}

// TestNodeRenewAllFencesLostLease exercises the per-node handle: when a
// held lease expires and another node adopts the job, RenewAll drops
// the lease and reports the job lost.
func TestNodeRenewAllFencesLostLease(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	c := NewCoordinator(Options{Clock: clk, LeaseTTL: time.Second})
	n1 := NewNode(c, "n1", "")
	n2 := NewNode(c, "n2", "")

	if err := n1.AcquireJob("job-1"); err != nil {
		t.Fatal(err)
	}
	if lost := n1.RenewAll(); len(lost) != 0 {
		t.Fatalf("healthy renewal lost %v", lost)
	}
	if !n1.HoldsLive("job-1") {
		t.Fatal("fresh lease not live")
	}

	clk.Advance(2 * time.Second)
	if n1.HoldsLive("job-1") {
		t.Fatal("expired lease still live")
	}
	if err := n2.AdoptLease("job-1", n1.HeldEpoch("job-1")); err != nil {
		t.Fatal(err)
	}

	if lost := n1.RenewAll(); len(lost) != 1 || lost[0] != "job-1" {
		t.Fatalf("losing the lease reported %v lost, want job-1", lost)
	}
	if n1.HoldsLive("job-1") || !n2.HoldsLive("job-1") {
		t.Fatal("ownership not transferred")
	}

	// Healthy renewal on the new owner keeps the lease alive across TTLs.
	for i := 0; i < 5; i++ {
		clk.Advance(500 * time.Millisecond)
		n2.RenewAll()
	}
	if !n2.HoldsLive("job-1") {
		t.Fatal("renewed lease lapsed")
	}
}

// TestLeaseRecordsReplay drives lease transitions through a real
// journal and checks both the live fold (JobSnapshot) and a fresh
// replay of the directory see the ownership state.
func TestLeaseRecordsReplay(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	dir, err := journal.OSDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(dir, journal.Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(journal.Record{
		Type: journal.RecJobSubmitted, JobID: "job-n1-1", Spec: &journal.JobSpec{},
	}); err != nil {
		t.Fatal(err)
	}

	c := NewCoordinator(Options{Clock: clk, LeaseTTL: 10 * time.Second, Journal: jnl})
	l, err := c.Acquire("job-n1-1", "n1", 0)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if l, err = c.Renew(l); err != nil {
		t.Fatal(err)
	}

	js, ok := jnl.JobSnapshot("job-n1-1")
	if !ok {
		t.Fatal("job absent from live fold")
	}
	if js.LeaseNode != "n1" || js.LeaseEpoch != l.Epoch {
		t.Fatalf("folded lease = %s@%d, want n1@%d", js.LeaseNode, js.LeaseEpoch, l.Epoch)
	}
	exp, err := time.Parse(time.RFC3339Nano, js.LeaseExpiry)
	if err != nil || !exp.Equal(l.Expiry) {
		t.Fatalf("folded expiry %q != lease expiry %v (%v)", js.LeaseExpiry, l.Expiry, err)
	}
	if ids := jnl.LiveJobs(); len(ids) != 1 || ids[0] != "job-n1-1" {
		t.Fatalf("LiveJobs = %v", ids)
	}

	// A cold replay of the same directory reconstructs the lease.
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	st, _, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := st.Jobs["job-n1-1"]
	if got == nil || got.LeaseNode != "n1" || got.LeaseEpoch != l.Epoch {
		t.Fatalf("replayed lease state = %+v", got)
	}

	// Release clears ownership in a fresh journal generation.
	jnl2, err := journal.Open(dir, journal.Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	c2 := NewCoordinator(Options{Clock: clk, LeaseTTL: 10 * time.Second, Journal: jnl2})
	l2, err := c2.Acquire("job-n1-1", "n2", got.LeaseEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Release(l2); err != nil {
		t.Fatal(err)
	}
	js2, ok := jnl2.JobSnapshot("job-n1-1")
	if !ok || js2.LeaseNode != "" || js2.LeaseEpoch != l2.Epoch {
		t.Fatalf("post-release fold = %+v, %v", js2, ok)
	}
}
