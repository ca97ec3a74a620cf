package journal

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/clock"
)

// probeDir counts segment fsyncs, can fail them or segment creates (an
// ENOSPC-style device error) and can hold a snapshot's fsync until
// released.
type probeDir struct {
	Dir
	segSyncs  atomic.Int64
	syncErr   error
	createErr error
	// snapEntered receives once a snapshot's Sync is reached; the Sync
	// then blocks until snapRelease closes. Nil leaves snapshots alone.
	snapEntered chan struct{}
	snapRelease chan struct{}
}

type probeFile struct {
	File
	d    *probeDir
	snap bool
}

func (d *probeDir) Create(name string) (File, error) {
	if d.createErr != nil && strings.HasPrefix(name, "seg-") {
		return nil, d.createErr
	}
	f, err := d.Dir.Create(name)
	if err != nil {
		return nil, err
	}
	return probeFile{File: f, d: d, snap: strings.HasPrefix(name, "snap-")}, nil
}

func (f probeFile) Sync() error {
	if f.snap {
		if f.d.snapEntered != nil {
			f.d.snapEntered <- struct{}{}
			<-f.d.snapRelease
		}
		return f.File.Sync()
	}
	f.d.segSyncs.Add(1)
	if f.d.syncErr != nil {
		return f.d.syncErr
	}
	return f.File.Sync()
}

func unwaited(t *testing.T, j *Journal, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := j.AppendAsync(Record{Type: RecStepCompleted, JobID: "job-1",
			FamilyID: fmt.Sprintf("fam-%d", i), GroupID: fmt.Sprintf("g-%d", i), Extractor: "noop"}); err != nil {
			t.Fatal(err)
		}
	}
}

// eventually polls cond; the leader-policy tests wait on journal state,
// never on a sleep of a guessed length.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func lastSeq(t *testing.T, dir Dir) uint64 {
	t.Helper()
	st, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st.LastSeq
}

// TestUnwaitedRecordsFlushOnAgeBound: records nobody waits on, fewer than
// the size bound, start no fsync of their own until the age bound passes
// on the journal's clock — then exactly one carries them all.
func TestUnwaitedRecordsFlushOnAgeBound(t *testing.T) {
	clk := clock.NewFake(time.Unix(1700000000, 0))
	mem := memDir(t)
	dir := &probeDir{Dir: mem}
	j := mustOpen(t, dir, Options{Clock: clk, CompactSegments: -1})
	defer j.Close()

	const n = 40
	unwaited(t, j, 0, n)
	eventually(t, "the age timer", func() bool { return clk.PendingTimers() == 1 })
	clk.Advance(unwaitedAge - time.Nanosecond)
	if got, timers := dir.segSyncs.Load(), clk.PendingTimers(); got != 0 || timers != 1 {
		t.Fatalf("before the age bound: %d fsyncs, %d timers armed; want 0 and 1", got, timers)
	}
	clk.Advance(time.Nanosecond)
	eventually(t, "the aged flush", func() bool { return lastSeq(t, mem) == n })
	// Nothing is left buffered, so the age goroutine stands down.
	eventually(t, "the age timer to disarm", func() bool { return clk.PendingTimers() == 0 })
	if got := dir.segSyncs.Load(); got != 1 {
		t.Fatalf("%d fsyncs for one aged batch, want 1", got)
	}
}

// TestWaiterCarriesUnwaitedRecords: one waited Append behind a run of
// unwaited records takes all of them out in its own single fsync.
func TestWaiterCarriesUnwaitedRecords(t *testing.T) {
	mem := memDir(t)
	dir := &probeDir{Dir: mem}
	j := mustOpen(t, dir, Options{CompactSegments: -1})
	defer j.Close()

	const n = 40
	unwaited(t, j, 0, n)
	if err := j.Append(Record{Type: RecJobTerminal, JobID: "job-1", State: "COMPLETE"}); err != nil {
		t.Fatal(err)
	}
	if got := dir.segSyncs.Load(); got != 1 {
		t.Fatalf("%d fsyncs, want the waiter's one", got)
	}
	if got := lastSeq(t, mem); got != n+1 {
		t.Fatalf("%d records on disk after the waited append, want %d", got, n+1)
	}
}

// TestSizeBoundFlushesWithoutTheClock: the buffer reaching maxUnwaited is
// a flush trigger of its own; the (fake, never advanced) clock plays no
// part.
func TestSizeBoundFlushesWithoutTheClock(t *testing.T) {
	mem := memDir(t)
	dir := &probeDir{Dir: mem}
	j := mustOpen(t, dir, Options{CompactSegments: -1})
	defer j.Close()

	unwaited(t, j, 0, maxUnwaited-1)
	if got := dir.segSyncs.Load(); got != 0 {
		t.Fatalf("%d fsyncs below the size bound, want 0", got)
	}
	unwaited(t, j, maxUnwaited-1, 1)
	eventually(t, "the size-bound flush", func() bool { return lastSeq(t, mem) == maxUnwaited })
	if got := dir.segSyncs.Load(); got != 1 {
		t.Fatalf("%d fsyncs for one full buffer, want 1", got)
	}
}

// TestWaiterPastSegmentBoundary: a batch is cut where the segment fills
// and its tail requeued; a waiter whose record fell in the tail is still
// made durable by the same leader, which keeps going while a waited
// record is not on disk.
func TestWaiterPastSegmentBoundary(t *testing.T) {
	mem := memDir(t)
	dir := &probeDir{Dir: mem}
	j := mustOpen(t, dir, Options{SegmentBytes: 1 << 10, CompactSegments: -1})
	defer j.Close()

	const n = 100 // ≈ 12 KiB of frames: a dozen segments
	unwaited(t, j, 0, n)
	if err := j.Append(Record{Type: RecJobTerminal, JobID: "job-1", State: "COMPLETE"}); err != nil {
		t.Fatal(err)
	}
	st, info, err := Replay(mem)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != n+1 || info.Segments < 5 {
		t.Fatalf("LastSeq %d over %d segments, want %d over at least 5", st.LastSeq, info.Segments, n+1)
	}
	if got := dir.segSyncs.Load(); got != int64(info.Segments) {
		t.Fatalf("%d fsyncs for %d segments: the leader must write each segment once", got, info.Segments)
	}
}

// TestRequeueKeepsSeqOrderUnderFollowers: records cut off by the segment
// boundary are shifted down in their own buffer and the ones accepted
// during the write are appended behind them; with waiters leading across
// a thousand tiny segments while a producer keeps appending, the log must
// still be one gapless sequence.
func TestRequeueKeepsSeqOrderUnderFollowers(t *testing.T) {
	mem := memDir(t)
	j := mustOpen(t, mem, Options{SegmentBytes: 1 << 10, CompactSegments: -1})
	const waited, followers = 50, 3000
	errc := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < waited && err == nil; i++ {
			err = j.Append(Record{Type: RecFamilyEnqueued, JobID: "job-1", FamilyID: fmt.Sprintf("w-%d", i), Groups: 1})
		}
		errc <- err
	}()
	unwaited(t, j, 0, followers)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, info, err := Replay(mem)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != waited+followers || info.SeqGap || info.TornTail || info.CorruptSegments != 0 {
		t.Fatalf("LastSeq %d (want %d), replay info %+v", st.LastSeq, waited+followers, info)
	}
}

// TestCloseAndCompactDrain: both leave nothing buffered, waited or not.
func TestCloseAndCompactDrain(t *testing.T) {
	mem := memDir(t)
	j := mustOpen(t, mem, Options{CompactSegments: -1})
	appendN(t, j, 1)
	unwaited(t, j, 1, 30)
	j.Compact()
	st, info, err := Replay(mem)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != 31 || info.SnapshotUsed == "" {
		t.Fatalf("after Compact: LastSeq %d, snapshot %q; want 31 under a snapshot", st.LastSeq, info.SnapshotUsed)
	}
	unwaited(t, j, 31, 30)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := lastSeq(t, mem); got != 61 {
		t.Fatalf("after Close: %d records on disk, want 61", got)
	}
}

// TestCompactionDoesNotBlockAppendersOrReaders: while a snapshot's fsync
// is held, AppendAsync returns and JobSnapshot answers — compaction holds
// the leader's seat, not the journal mutex.
func TestCompactionDoesNotBlockAppendersOrReaders(t *testing.T) {
	dir := &probeDir{Dir: memDir(t), snapEntered: make(chan struct{}), snapRelease: make(chan struct{})}
	j := mustOpen(t, dir, Options{CompactSegments: -1})
	defer j.Close()
	appendN(t, j, 10)

	compacted := make(chan struct{})
	go func() {
		defer close(compacted)
		j.Compact()
	}()
	<-dir.snapEntered

	answered := make(chan error, 1)
	go func() {
		if err := j.AppendAsync(Record{Type: RecStepRetried, JobID: "job-1", Attempt: 1}); err != nil {
			answered <- err
			return
		}
		if js, ok := j.JobSnapshot("job-1"); !ok || len(js.Steps) != 9 {
			answered <- fmt.Errorf("JobSnapshot = %+v, %v", js, ok)
			return
		}
		if ids := j.LiveJobs(); len(ids) != 1 {
			answered <- fmt.Errorf("LiveJobs = %v", ids)
			return
		}
		answered <- nil
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("appender and readers stalled behind a snapshot fsync")
	}
	close(dir.snapRelease)
	<-compacted
	if _, _, compacts := j.Stats(); compacts != 1 {
		t.Fatalf("compacts = %d, want 1", compacts)
	}
}

// TestDeviceErrorFailsEveryTicket: an fsync error fails the waiter that
// met it, every ticket still buffered, and everything offered afterwards.
func TestDeviceErrorFailsEveryTicket(t *testing.T) {
	enospc := errors.New("write: no space left on device")
	dir := &probeDir{Dir: memDir(t), syncErr: enospc}
	j := mustOpen(t, dir, Options{CompactSegments: -1})

	early := j.Begin(Record{Type: RecStepRetried, JobID: "job-1", Attempt: 1})
	if err := j.Append(Record{Type: RecJobTerminal, JobID: "job-1"}); !errors.Is(err, enospc) {
		t.Fatalf("Append on a full device = %v", err)
	}
	if err := early.Wait(); !errors.Is(err, enospc) {
		t.Fatalf("earlier ticket = %v", err)
	}
	if err := j.AppendAsync(Record{Type: RecStepRetried, JobID: "job-1", Attempt: 2}); !errors.Is(err, enospc) {
		t.Fatalf("AppendAsync after the failure = %v", err)
	}
	if err := j.Close(); !errors.Is(err, enospc) {
		t.Fatalf("Close = %v", err)
	}
}

// TestDeviceFailureIsLoggedOnce: the failed fsync or segment open that
// makes the journal's error sticky is one error record in the process
// log; the appends refused after it add none. It swaps slog's default
// logger, so it does not run in parallel.
func TestDeviceFailureIsLoggedOnce(t *testing.T) {
	enospc := errors.New("no space left on device")
	for name, dir := range map[string]*probeDir{"fsync": {syncErr: enospc}, "segment open": {createErr: enospc}} {
		t.Run(name, func(t *testing.T) {
			var logged bytes.Buffer
			prev := slog.Default()
			slog.SetDefault(slog.New(slog.NewJSONHandler(&logged, nil)))
			t.Cleanup(func() { slog.SetDefault(prev) })
			dir.Dir = memDir(t)
			j := mustOpen(t, dir, Options{CompactSegments: -1})
			for i := 0; i < 50; i++ {
				if err := j.Append(Record{Type: RecStepRetried, JobID: "job-1", Attempt: i}); !errors.Is(err, enospc) {
					t.Fatalf("append %d = %v, want the device error", i, err)
				}
			}
			_ = j.Close()
			out := logged.String()
			if n := strings.Count(out, "\n"); n != 1 || !strings.Contains(out, `"level":"ERROR"`) || !strings.Contains(out, enospc.Error()) {
				t.Fatalf("process log after 50 failed appends (%d records):\n%s", n, out)
			}
		})
	}
}

// TestTicketResolvesOnKill: a ticket whose record the crash dropped
// reports ErrKilled instead of waiting forever. (The batch in flight at
// the kill may still land, as on a real disk, so its ticket can go either
// way.)
func TestTicketResolvesOnKill(t *testing.T) {
	gate := make(chan struct{})
	j := mustOpen(t, gateDir{Dir: memDir(t), gate: gate}, Options{CompactSegments: -1})
	first := j.Begin(Record{Type: RecJobSubmitted, JobID: "job-1", Spec: &JobSpec{}})
	waited := make(chan error, 1)
	go func() { waited <- first.Wait() }() // leads, parks in the gated fsync
	eventually(t, "the leader to take the batch", func() bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.syncing && len(j.pending) == 0
	})
	second := j.Begin(Record{Type: RecFamilyEnqueued, JobID: "job-1", FamilyID: "f", Groups: 1})
	j.Kill()
	if err := second.Wait(); err != ErrKilled {
		t.Fatalf("dropped ticket = %v, want ErrKilled", err)
	}
	close(gate)
	<-waited
}
