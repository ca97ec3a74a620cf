package cluster

import (
	"context"
	"sync"
	"time"
)

// Node is one serve process's handle on the cluster: its identity and
// address, and the leases it currently holds.
type Node struct {
	coord *Coordinator
	id    string
	addr  string

	mu   sync.Mutex
	held map[string]Lease
}

// NewNode creates the handle and joins the cluster.
func NewNode(c *Coordinator, id, addr string) *Node {
	n := &Node{
		coord: c,
		id:    id,
		addr:  addr,
		held:  make(map[string]Lease),
	}
	c.Join(id, addr)
	return n
}

// ID returns the node identity.
func (n *Node) ID() string { return n.id }

// Addr returns the node's advertised address.
func (n *Node) Addr() string { return n.addr }

// Coordinator returns the shared coordination state.
func (n *Node) Coordinator() *Coordinator { return n.coord }

// AcquireJob takes the lease on a freshly submitted job.
func (n *Node) AcquireJob(jobID string) error { return n.AdoptLease(jobID, 0) }

// AdoptLease takes the lease on jobID with a fencing-epoch floor — a
// recovering or adopting node passes the journaled epoch so the issued
// epoch supersedes anything the previous owner could still write.
func (n *Node) AdoptLease(jobID string, minEpoch int64) error {
	l, err := n.coord.Acquire(jobID, n.id, minEpoch)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.held[jobID] = l
	n.mu.Unlock()
	return nil
}

// ReleaseJob drops the lease after a job reaches its terminal record.
func (n *Node) ReleaseJob(jobID string) {
	n.mu.Lock()
	l, ok := n.held[jobID]
	delete(n.held, jobID)
	n.mu.Unlock()
	if ok {
		_ = n.coord.Release(l)
	}
}

// HoldsLive reports whether this node's lease on jobID is the current
// live one — the fencing predicate the core service checks before every
// journal append for the job.
func (n *Node) HoldsLive(jobID string) bool {
	n.mu.Lock()
	l, ok := n.held[jobID]
	n.mu.Unlock()
	return ok && n.coord.Valid(jobID, l.Node, l.Epoch)
}

// HeldEpoch returns the fencing epoch of the held lease (0 when not
// held).
func (n *Node) HeldEpoch(jobID string) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.held[jobID].Epoch
}

// Owns reports whether this node is key's placement-ring owner. With no
// live members (all heartbeats stale — e.g. during shutdown) it answers
// false.
func (n *Node) Owns(key string) bool {
	id, _, ok := n.coord.Owner(key)
	return ok && id == n.id
}

// RenewAll renews every held lease. A lease that comes back fenced is
// dropped and its job reported lost: the journal-append fence stops what
// is in flight, and the caller stops the job's pump (the local half of
// fencing — this node stops driving the job instead of racing its successor).
func (n *Node) RenewAll() (lost []string) {
	n.mu.Lock()
	held := make([]Lease, 0, len(n.held))
	for _, l := range n.held {
		held = append(held, l)
	}
	n.mu.Unlock()
	for _, l := range held {
		renewed, err := n.coord.Renew(l)
		n.mu.Lock()
		if err != nil {
			delete(n.held, l.JobID)
			lost = append(lost, l.JobID)
		} else if _, ok := n.held[l.JobID]; ok {
			n.held[l.JobID] = renewed // the newest view, unless the job finished meanwhile
		}
		n.mu.Unlock()
	}
	return lost
}

// Run drives the node's maintenance loop until ctx ends: heartbeat, lease
// renewal, and scan — which stops the jobs whose lease the round lost and
// adopts the unowned journaled jobs this node places. The loop ticks at a
// third of the lease TTL so a healthy node never lets a lease lapse, and
// reruns immediately on membership changes.
func (n *Node) Run(ctx context.Context, scan func(ctx context.Context, lost []string)) {
	interval := n.coord.LeaseTTL() / 3
	if n.coord.beatTTL > 0 && n.coord.beatTTL/3 < interval {
		interval = n.coord.beatTTL / 3
	}
	if interval <= 0 {
		interval = time.Millisecond
	}
	changed := n.coord.Subscribe()
	for {
		n.coord.Heartbeat(n.id)
		scan(ctx, n.RenewAll())
		select {
		case <-ctx.Done():
			return
		case <-n.coord.clk.After(interval):
		case <-changed:
		}
	}
}
