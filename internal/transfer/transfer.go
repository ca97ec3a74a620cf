// Package transfer implements Xtract's data fabric: the Globus-like
// third-party batch transfer service that moves files between storage
// endpoints, the HTTPS-style direct fetch path, and the prefetcher
// microservice that orchestrates required moves ahead of extraction.
//
// Endpoints pair a storage system with a network location; links between
// endpoints carry a bandwidth, a round-trip latency, and a per-file
// overhead. Concurrent jobs on a link share its bandwidth (payload time is
// serialized per link), which reproduces the paper's observation that
// aggregate transfer rate, not job count, bounds throughput (Figure 6).
package transfer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"xtract/internal/clock"
	"xtract/internal/obs"
	"xtract/internal/store"
)

// Errors returned by the fabric.
var (
	ErrNoEndpoint = errors.New("transfer: unknown endpoint")
	ErrNoLink     = errors.New("transfer: no link between endpoints")
	ErrNoJob      = errors.New("transfer: unknown job")
)

// FaultHook injects failures into the fabric for chaos testing.
// internal/faultinject satisfies it structurally; a nil hook is a no-op.
type FaultHook interface {
	// TransferFault is consulted once per job after the RTT charge. A
	// positive duration stalls the job; a non-nil error fails it.
	TransferFault(src, dst string) (time.Duration, error)
}

// Link models the network path between two endpoints.
type Link struct {
	// BytesPerSec is the sustained data rate; <= 0 means infinite.
	BytesPerSec float64
	// RTT is charged once per job for control traffic.
	RTT time.Duration
	// PerFileOverhead is charged per file (checksumming, small-file setup);
	// this is what makes many-small-file transfers slow on Globus.
	PerFileOverhead time.Duration
}

// payloadTime returns the bandwidth-limited time for n bytes.
func (l Link) payloadTime(n int64) time.Duration {
	if l.BytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / l.BytesPerSec * float64(time.Second))
}

// Endpoint is a named storage location attached to the fabric.
type Endpoint struct {
	ID    string
	Store store.Store
}

// FilePair names one file movement within a job.
type FilePair struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
}

// Status is the lifecycle state of a transfer job.
type Status int

// Job states, in order.
const (
	StatusPending Status = iota
	StatusActive
	StatusSucceeded
	StatusFailed
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "PENDING"
	case StatusActive:
		return "ACTIVE"
	case StatusSucceeded:
		return "SUCCEEDED"
	case StatusFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// JobInfo is the state of a transfer job, final unless Status is
// StatusActive (see WaitFiles).
type JobInfo struct {
	Status           Status
	FilesDone        int
	BytesTransferred int64
	Elapsed          time.Duration
	Err              string
}

type job struct {
	id       string
	src, dst string
	pairs    []FilePair

	mu       sync.Mutex
	status   Status
	landed   []int64 // landed[k]: bytes of the first k files down; len-1 files are
	err      error
	started  time.Time
	finished time.Time
	// progress takes a token whenever the job is about to sleep (the files
	// of one burst are one wake-up) and is closed when it is terminal.
	progress chan struct{}
}

// Fabric is the transfer service: a registry of endpoints and links plus
// an asynchronous batch-transfer executor.
type Fabric struct {
	clk clock.Clock

	mu        sync.Mutex
	endpoints map[string]*Endpoint
	links     map[[2]string]*linkState
	jobs      map[string]*job
	seq       int
	faults    FaultHook

	// Observability handles (nil-safe when Instrument is never called).
	obsBytes      *obs.Counter
	obsFiles      *obs.Counter
	obsDuration   *obs.Histogram
	obsFetchBytes *obs.Counter
	obsJobs       *obs.CounterVec // by terminal status
}

// Instrument registers the fabric's transfer metrics on the
// observability registry: bytes/files moved, job outcomes, transfer
// latency, and direct-fetch bytes.
func (f *Fabric) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	f.obsBytes = reg.Counter("xtract_transfer_bytes_total",
		"Bytes moved by completed transfer jobs.")
	f.obsFiles = reg.Counter("xtract_transfer_files_total",
		"Files moved by completed transfer jobs.")
	f.obsJobs = reg.CounterVec("xtract_transfer_jobs_total",
		"Transfer jobs by terminal status.", "status")
	for _, st := range []Status{StatusSucceeded, StatusFailed} {
		f.obsJobs.With(st.String())
	}
	f.obsDuration = reg.Histogram("xtract_transfer_duration_seconds",
		"End-to-end latency of transfer jobs.", nil)
	f.obsFetchBytes = reg.Counter("xtract_transfer_fetch_bytes_total",
		"Bytes served through the direct per-file fetch path.")
}

// linkTick is about one timer tick: a shorter sleep costs this anyway.
const linkTick = time.Millisecond

type linkState struct {
	link Link
	// mu guards busyUntil, when the link will have carried every payload
	// charged so far: concurrent jobs share its rate through it.
	mu        sync.Mutex
	busyUntil time.Time
}

// carry charges a file's payload time to the link at time now and returns
// when the link will have carried it, or zero while that is under a tick
// away: jobs together never move more than rate x elapsed plus one tick,
// and the tick of slack lets a job that woke late catch up instead of
// paying a tick per file. Charges book from the clock, not from a job's
// schedule, which would ratchet every job up to the one furthest ahead.
func (ls *linkState) carry(now time.Time, pay time.Duration) time.Time {
	if pay <= 0 {
		return time.Time{} // an empty file, or a link with no rate, waits for nobody
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.busyUntil.Before(now) {
		ls.busyUntil = now
	}
	ls.busyUntil = ls.busyUntil.Add(pay)
	if ls.busyUntil.Sub(now) < linkTick {
		return time.Time{}
	}
	return ls.busyUntil
}

// SetFaults installs (or clears, with nil) the fabric's fault hook.
func (f *Fabric) SetFaults(h FaultHook) {
	f.mu.Lock()
	f.faults = h
	f.mu.Unlock()
}

// faultHook reads the installed hook; nil means no injection.
func (f *Fabric) faultHook() FaultHook {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

// NewFabric returns an empty fabric using clk for transfer timing.
func NewFabric(clk clock.Clock) *Fabric {
	return &Fabric{
		clk:       clk,
		endpoints: make(map[string]*Endpoint),
		links:     make(map[[2]string]*linkState),
		jobs:      make(map[string]*job),
	}
}

// AddEndpoint registers a storage endpoint under id.
func (f *Fabric) AddEndpoint(id string, s store.Store) *Endpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	ep := &Endpoint{ID: id, Store: s}
	f.endpoints[id] = ep
	return ep
}

// Endpoint returns the endpoint registered under id.
func (f *Fabric) Endpoint(id string) (*Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ep, ok := f.endpoints[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoEndpoint, id)
	}
	return ep, nil
}

// SetLink installs the directed link src→dst.
func (f *Fabric) SetLink(src, dst string, link Link) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.links[[2]string{src, dst}] = &linkState{link: link}
}

// linkFor returns the directed link, falling back to a zero-cost link if
// none is configured between known endpoints.
func (f *Fabric) linkFor(src, dst string) *linkState {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ls, ok := f.links[[2]string{src, dst}]; ok {
		return ls
	}
	// Default: free intra-fabric movement. Register so that all jobs on
	// the same pair share one state.
	ls := &linkState{}
	f.links[[2]string{src, dst}] = ls
	return ls
}

// Submit starts an asynchronous batch transfer of pairs from endpoint src
// to endpoint dst and returns the job ID.
func (f *Fabric) Submit(src, dst string, pairs []FilePair) (string, error) {
	srcEP, err := f.Endpoint(src)
	if err != nil {
		return "", err
	}
	dstEP, err := f.Endpoint(dst)
	if err != nil {
		return "", err
	}
	f.mu.Lock()
	f.seq++
	j := &job{
		id:       fmt.Sprintf("xfer-%d", f.seq),
		src:      src,
		dst:      dst,
		pairs:    append([]FilePair(nil), pairs...),
		landed:   make([]int64, 1, len(pairs)+1),
		progress: make(chan struct{}, 1),
	}
	f.jobs[j.id] = j
	f.mu.Unlock()

	go f.run(j, srcEP, dstEP)
	return j.id, nil
}

// run executes a job and publishes its terminal state.
func (f *Fabric) run(j *job, srcEP, dstEP *Endpoint) {
	start := f.clk.Now()
	j.mu.Lock()
	j.status = StatusActive
	j.started = start
	j.mu.Unlock()

	err := f.move(j, f.linkFor(j.src, j.dst), srcEP, dstEP, start)

	j.mu.Lock()
	j.status = StatusSucceeded
	if err != nil {
		j.status = StatusFailed
		j.err = err
	}
	j.finished = f.clk.Now()
	j.mu.Unlock()
	f.observeTerminal(j)
	close(j.progress)
}

// move charges the job by schedule. due is the time the link model says
// the job has reached: its start, the RTT once, any injected stall, then
// each file's overhead and payload (or the link's time, when that is
// behind). The job sleeps only while due is ahead of the clock, so a late
// timer is absorbed by the files behind it, not paid again per file; a
// file is written when the clock reaches its due time, never before.
func (f *Fabric) move(j *job, ls *linkState, srcEP, dstEP *Endpoint, due time.Time) error {
	due = due.Add(ls.link.RTT)
	clock.SleepUntil(f.clk, due)
	if h := f.faultHook(); h != nil {
		stall, err := h.TransferFault(j.src, j.dst)
		if stall > 0 {
			due = due.Add(stall)
			clock.SleepUntil(f.clk, due)
		}
		if err != nil {
			return err
		}
	}
	for _, p := range j.pairs {
		data, err := srcEP.Store.Read(p.Src)
		if err != nil {
			return fmt.Errorf("read %s:%s: %w", j.src, p.Src, err)
		}
		pay := ls.link.payloadTime(int64(len(data)))
		due = due.Add(ls.link.PerFileOverhead + pay)
		now := f.clk.Now()
		if free := ls.carry(now, pay); free.After(due) {
			due = free
		}
		if due.After(now) {
			select {
			case j.progress <- struct{}{}:
			default:
			}
			f.clk.Sleep(due.Sub(now))
		}
		if err := dstEP.Store.Write(p.Dst, data); err != nil {
			return fmt.Errorf("write %s:%s: %w", j.dst, p.Dst, err)
		}
		j.mu.Lock()
		j.landed = append(j.landed, j.landed[len(j.landed)-1]+int64(len(data)))
		j.mu.Unlock()
	}
	return nil
}

// observeTerminal records a finished job's outcome on the observability
// registry. Bytes and files reflect what actually moved, even on failure.
func (f *Fabric) observeTerminal(j *job) {
	info := j.info(math.MaxInt)
	f.obsJobs.With(info.Status.String()).Inc()
	f.obsBytes.Add(float64(info.BytesTransferred))
	f.obsFiles.Add(float64(info.FilesDone))
	f.obsDuration.ObserveDuration(info.Elapsed)
}

// info is the job's state now, counting the bytes of its first n files.
func (j *job) info(n int) JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{Status: j.status, FilesDone: len(j.landed) - 1}
	info.BytesTransferred = j.landed[min(n, info.FilesDone)]
	if j.status >= StatusSucceeded {
		info.Elapsed = j.finished.Sub(j.started)
	}
	if j.err != nil {
		info.Err = j.err.Error()
	}
	return info
}

// Wait blocks until the job completes and returns its final state.
func (f *Fabric) Wait(id string) (JobInfo, error) {
	return f.WaitContext(context.Background(), id)
}

// WaitContext blocks until the job completes or ctx ends. The final
// JobInfo is handed out once: the job's record (and the pair list it
// pins) is dropped when the wait returns, whichever way it ends, so the
// ID is unknown afterwards.
func (f *Fabric) WaitContext(ctx context.Context, id string) (JobInfo, error) {
	defer func() {
		f.mu.Lock()
		delete(f.jobs, id)
		f.mu.Unlock()
	}()
	return f.WaitFiles(ctx, id, math.MaxInt)
}

// WaitFiles blocks until at least n of the job's files have landed, in
// the order submitted, the job is terminal, or ctx ends (Globus's list of
// successful transfers is the analogue). FilesDone below n means the job
// ended short; BytesTransferred counts the first n files only. One
// goroutine follows a job; WaitContext still collects the record.
func (f *Fabric) WaitFiles(ctx context.Context, id string, n int) (JobInfo, error) {
	f.mu.Lock()
	j, ok := f.jobs[id]
	f.mu.Unlock()
	if !ok {
		return JobInfo{}, fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	for {
		if info := j.info(n); info.FilesDone >= n || info.Status >= StatusSucceeded {
			return info, nil
		}
		select {
		case <-j.progress:
		case <-ctx.Done():
			return JobInfo{}, ctx.Err()
		}
	}
}

// JobRecords reports how many job records the fabric holds.
func (f *Fabric) JobRecords() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.jobs)
}

// Fetch performs a direct per-file download from an endpoint (the Globus
// HTTPS / Google Drive API path used when a compute site must pull a file
// that is not on a shared file system).
func (f *Fabric) Fetch(src, path string) ([]byte, error) {
	srcEP, err := f.Endpoint(src)
	if err != nil {
		return nil, err
	}
	data, err := srcEP.Store.Read(path)
	if err == nil {
		f.obsFetchBytes.Add(float64(len(data)))
	}
	return data, err
}

// Endpoints lists registered endpoint IDs.
func (f *Fabric) Endpoints() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.endpoints))
	for id := range f.endpoints {
		out = append(out, id)
	}
	return out
}
