// Package cluster is the coordination layer that lets several `xtract
// serve` nodes run against a shared queue + journal. Jobs are placed on
// live nodes by consistent hashing; ownership is a renewable lease with
// a clock-injected TTL, recorded through the journal as
// lease_acquired / lease_renewed / lease_released records so a
// restarting or adopting node can see who owned what. Every lease
// carries a monotonically increasing fencing epoch: a node that lost
// its lease (paused, partitioned, or simply slow) fails the epoch check
// and its late journal appends are dropped by the core service rather
// than corrupting a job another node now owns.
//
// The Coordinator is the in-process stand-in for an external
// coordination service (the role etcd/ZooKeeper/DynamoDB-lock would
// play in the paper's AWS deployment): membership, the lease table, and
// epoch issuance live in one place that all in-process nodes share. A
// per-node handle (Node) tracks the leases this node holds and reports
// the jobs whose lease a renewal round lost.
package cluster

import (
	"errors"
	"sort"
	"sync"
	"time"

	"xtract/internal/clock"
	"xtract/internal/journal"
	"xtract/internal/tenant"
)

// Errors returned by lease operations.
var (
	// ErrHeld is returned by Acquire while another node holds a live
	// lease on the job.
	ErrHeld = errors.New("cluster: lease held by another node")
	// ErrFenced is returned by Renew/Release when the caller's lease is
	// no longer the current one (expired and reissued, or released) —
	// the split-brain signal: stop touching the job.
	ErrFenced = errors.New("cluster: lease fenced")
)

// Lease is one node's ownership of one job: valid until Expiry, fenced
// by Epoch.
type Lease struct {
	JobID  string
	Node   string
	Epoch  int64
	Expiry time.Time
}

// Appender is the journal surface the coordinator records lease
// transitions through (*journal.Journal satisfies it).
type Appender interface {
	Append(journal.Record) error
}

// Options tunes a Coordinator.
type Options struct {
	// Clock drives lease TTLs and heartbeat liveness; nil selects the
	// wall clock.
	Clock clock.Clock
	// LeaseTTL is how long an unrenewed lease stays valid (default 10s).
	LeaseTTL time.Duration
	// HeartbeatTTL is how long a member stays alive without a
	// heartbeat. Zero means static membership: every joined member is
	// always alive (the CLI's -cluster-peers mode, where liveness is
	// not observable in-process).
	HeartbeatTTL time.Duration
	// Journal, when set, receives a record for every lease transition.
	Journal Appender
}

// memberState is one joined node.
type memberState struct {
	addr     string
	lastBeat time.Time
}

// Member is a point-in-time view of one cluster member.
type Member struct {
	ID    string `json:"id"`
	Addr  string `json:"addr,omitempty"`
	Alive bool   `json:"alive"`
	// Leases counts live leases held by this member.
	Leases int `json:"leases"`
}

// UsageReporter reports one node's local usage for a tenant.
type UsageReporter func(tenantID string) (tenant.Usage, bool)

// Coordinator is the shared coordination state: membership, the lease
// table, fencing epochs, and per-node tenant-usage reporters.
type Coordinator struct {
	clk      clock.Clock
	leaseTTL time.Duration
	beatTTL  time.Duration
	jnl      Appender

	mu      sync.Mutex
	members map[string]*memberState
	leases  map[string]Lease
	// epochs is the high-water fencing epoch per job; it only grows,
	// across releases and re-acquisitions.
	epochs map[string]int64
	subs   []chan struct{}
	usage  map[string]UsageReporter
}

// NewCoordinator builds a coordinator.
func NewCoordinator(opts Options) *Coordinator {
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	return &Coordinator{
		clk:      opts.Clock,
		leaseTTL: opts.LeaseTTL,
		beatTTL:  opts.HeartbeatTTL,
		jnl:      opts.Journal,
		members:  make(map[string]*memberState),
		leases:   make(map[string]Lease),
		epochs:   make(map[string]int64),
		usage:    make(map[string]UsageReporter),
	}
}

// LeaseTTL reports the configured lease TTL.
func (c *Coordinator) LeaseTTL() time.Duration { return c.leaseTTL }

// Join adds (or re-adds) a member and notifies subscribers.
func (c *Coordinator) Join(id, addr string) {
	c.mu.Lock()
	c.members[id] = &memberState{addr: addr, lastBeat: c.clk.Now()}
	subs := append([]chan struct{}(nil), c.subs...)
	c.mu.Unlock()
	notify(subs)
}

// Leave removes a member and notifies subscribers. Its leases are left
// to expire naturally — the fencing epoch, not membership, guards the
// jobs.
func (c *Coordinator) Leave(id string) {
	c.mu.Lock()
	delete(c.members, id)
	subs := append([]chan struct{}(nil), c.subs...)
	c.mu.Unlock()
	notify(subs)
}

// Heartbeat refreshes a member's liveness.
func (c *Coordinator) Heartbeat(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.members[id]; ok {
		m.lastBeat = c.clk.Now()
	}
}

// Subscribe returns a channel that receives a token on every membership
// change (Join/Leave). The channel has capacity 1; coalesced
// notifications are fine — subscribers rescan, they don't diff.
func (c *Coordinator) Subscribe() <-chan struct{} {
	ch := make(chan struct{}, 1)
	c.mu.Lock()
	c.subs = append(c.subs, ch)
	c.mu.Unlock()
	return ch
}

func notify(subs []chan struct{}) {
	for _, ch := range subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// aliveLocked reports whether member m is live at now.
func (c *Coordinator) aliveLocked(m *memberState, now time.Time) bool {
	return c.beatTTL <= 0 || now.Sub(m.lastBeat) < c.beatTTL
}

// Members lists all joined members, sorted by ID.
func (c *Coordinator) Members() []Member {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	leases := make(map[string]int)
	for _, l := range c.leases {
		if now.Before(l.Expiry) {
			leases[l.Node]++
		}
	}
	out := make([]Member, 0, len(c.members))
	for id, m := range c.members {
		out = append(out, Member{ID: id, Addr: m.addr, Alive: c.aliveLocked(m, now), Leases: leases[id]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Addr returns a member's advertised address.
func (c *Coordinator) Addr(id string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[id]
	if !ok {
		return "", false
	}
	return m.addr, true
}

// Owner returns the live member that owns key on the placement ring.
func (c *Coordinator) Owner(key string) (id, addr string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	alive := make([]string, 0, len(c.members))
	for mid, m := range c.members {
		if c.aliveLocked(m, now) {
			alive = append(alive, mid)
		}
	}
	sort.Strings(alive)
	id, ok = buildRing(alive).owner(key)
	if !ok {
		return "", "", false
	}
	return id, c.members[id].addr, true
}

// Acquire grants node a lease on jobID, failing with ErrHeld while
// another node's lease is live. minEpoch floors the issued fencing
// epoch — an adopting node passes the journaled epoch so the new lease
// fences every record the dead owner might still flush. The issued
// epoch is always strictly greater than any seen before.
func (c *Coordinator) Acquire(jobID, node string, minEpoch int64) (Lease, error) {
	c.mu.Lock()
	now := c.clk.Now()
	if cur, ok := c.leases[jobID]; ok && cur.Node != node && now.Before(cur.Expiry) {
		c.mu.Unlock()
		return Lease{}, ErrHeld
	}
	epoch := c.epochs[jobID]
	if epoch < minEpoch {
		epoch = minEpoch
	}
	epoch++
	c.epochs[jobID] = epoch
	l := Lease{JobID: jobID, Node: node, Epoch: epoch, Expiry: now.Add(c.leaseTTL)}
	c.leases[jobID] = l
	c.mu.Unlock()
	c.journal(journal.RecLeaseAcquired, l)
	return l, nil
}

// Renew extends l's expiry, failing with ErrFenced when l is no longer
// the current live lease (expired — even if unclaimed — released, or
// superseded by a higher epoch).
func (c *Coordinator) Renew(l Lease) (Lease, error) {
	c.mu.Lock()
	now := c.clk.Now()
	cur, ok := c.leases[l.JobID]
	if !ok || cur.Node != l.Node || cur.Epoch != l.Epoch || !now.Before(cur.Expiry) {
		c.mu.Unlock()
		return Lease{}, ErrFenced
	}
	cur.Expiry = now.Add(c.leaseTTL)
	c.leases[l.JobID] = cur
	c.mu.Unlock()
	c.journal(journal.RecLeaseRenewed, cur)
	return cur, nil
}

// Release drops l, failing with ErrFenced when l is not the current
// lease (a fenced node releasing late must not free a successor's
// lease).
func (c *Coordinator) Release(l Lease) error {
	c.mu.Lock()
	cur, ok := c.leases[l.JobID]
	if !ok || cur.Node != l.Node || cur.Epoch != l.Epoch {
		c.mu.Unlock()
		return ErrFenced
	}
	delete(c.leases, l.JobID)
	c.mu.Unlock()
	c.journal(journal.RecLeaseReleased, l)
	return nil
}

// Holder returns the live lease on jobID, if any.
func (c *Coordinator) Holder(jobID string) (Lease, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[jobID]
	if !ok || !c.clk.Now().Before(l.Expiry) {
		return Lease{}, false
	}
	return l, true
}

// Valid reports whether (node, epoch) is the current live lease on
// jobID — the fencing check the core service runs before journaling.
func (c *Coordinator) Valid(jobID, node string, epoch int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[jobID]
	return ok && l.Node == node && l.Epoch == epoch && c.clk.Now().Before(l.Expiry)
}

// journal records one lease transition; append failures are dropped —
// the lease table, not the log, is authoritative for fencing, and the
// journal's own error accounting covers the loss.
func (c *Coordinator) journal(typ string, l Lease) {
	if c.jnl == nil {
		return
	}
	rec := journal.Record{Type: typ, JobID: l.JobID, Node: l.Node, Epoch: l.Epoch}
	if typ != journal.RecLeaseReleased {
		rec.TTLMS = c.leaseTTL.Milliseconds()
	}
	_ = c.jnl.Append(rec)
}

// RegisterUsage installs node's tenant-usage reporter for cross-node
// aggregation.
func (c *Coordinator) RegisterUsage(node string, fn UsageReporter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.usage[node] = fn
}

// GlobalUsage sums a tenant's usage across every registered node.
// Reporters are called with the coordinator lock dropped: they take
// their own controller locks, and holding ours across that would order
// locks differently on different nodes.
func (c *Coordinator) GlobalUsage(tenantID string) (tenant.Usage, bool) {
	var total tenant.Usage
	found := false
	for _, fn := range c.reporters("") {
		if u, ok := fn(tenantID); ok {
			total.Add(u)
			found = true
		}
	}
	return total, found
}

// PeerActive counts a tenant's active jobs on every node except self —
// the cross-node half of the MaxActiveJobs quota. Callers must not hold
// their own controller lock (the reporters take peer controller locks).
func (c *Coordinator) PeerActive(self, tenantID string) int {
	active := 0
	for _, fn := range c.reporters(self) {
		if u, ok := fn(tenantID); ok {
			active += u.ActiveJobs
		}
	}
	return active
}

// reporters snapshots the reporter set, excluding node skip.
func (c *Coordinator) reporters(skip string) []UsageReporter {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]UsageReporter, 0, len(c.usage))
	ids := make([]string, 0, len(c.usage))
	for id := range c.usage {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if id != skip {
			out = append(out, c.usage[id])
		}
	}
	return out
}
