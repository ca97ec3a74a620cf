package api_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/api"
	"xtract/internal/deploy"
	"xtract/internal/journal"
	"xtract/internal/store"
)

// deviceDir is a journal directory with a misbehaving device under it:
// every segment fsync waits for release (nil: no wait) and then fails with
// syncErr (nil: succeeds).
type deviceDir struct {
	journal.Dir
	mu      sync.Mutex // guards release and holdAt
	release chan struct{}
	opened  sync.Once
	syncErr error
	// holdAt, when set, names a record type: the first batch written with
	// one in it is held (its fsync waits for open), and written closes.
	holdAt  string
	written chan struct{}
}

// open releases the held fsyncs; safe to call again from a deferred
// cleanup, so a failed assertion does not leave the server wedged.
func (d *deviceDir) open() {
	d.opened.Do(func() {
		d.mu.Lock()
		close(d.release)
		d.mu.Unlock()
	})
}

type deviceFile struct {
	journal.File
	d *deviceDir
}

func (d *deviceDir) Create(name string) (journal.File, error) {
	f, err := d.Dir.Create(name)
	if err != nil {
		return nil, err
	}
	return deviceFile{File: f, d: d}, nil
}

func (f deviceFile) Write(p []byte) (int, error) {
	f.d.mu.Lock()
	at := f.d.holdAt
	if at != "" && bytes.Contains(p, []byte(`"type":"`+at+`"`)) {
		f.d.holdAt, f.d.release = "", make(chan struct{})
		close(f.d.written)
	}
	f.d.mu.Unlock()
	return f.File.Write(p)
}

func (f deviceFile) Sync() error {
	f.d.mu.Lock()
	release := f.d.release
	f.d.mu.Unlock()
	if release != nil {
		<-release
	}
	if f.d.syncErr != nil {
		return f.d.syncErr
	}
	return f.File.Sync()
}

// listCounter counts directory listings of the source store.
type listCounter struct {
	store.Store
	lists atomic.Int64
}

func (s *listCounter) List(dir string) ([]store.FileInfo, error) {
	s.lists.Add(1)
	return s.Store.List(dir)
}

// journalRecords decodes every record on a journal disk, in seq order.
func journalRecords(t *testing.T, disk *store.MemFS, prefix string) []journal.Record {
	t.Helper()
	infos, err := disk.List(prefix)
	if err != nil {
		t.Fatal(err)
	}
	var recs []journal.Record
	for _, fi := range infos {
		if !strings.HasSuffix(fi.Name, ".wal") {
			continue
		}
		data, err := disk.Read(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		// Frame: 4-byte little-endian payload length, 4-byte CRC, payload.
		for off := 0; off+8 <= len(data); {
			n := int(binary.LittleEndian.Uint32(data[off:]))
			var rec journal.Record
			if err := json.Unmarshal(data[off+8:off+8+n], &rec); err != nil {
				t.Fatalf("%s@%d: %v", fi.Name, off, err)
			}
			recs = append(recs, rec)
			off += 8 + n
		}
	}
	sort.Slice(recs, func(i, k int) bool { return recs[i].Seq < recs[k].Seq })
	return recs
}

func destDocs(dest store.Store) int {
	infos, err := dest.List("/metadata")
	if err != nil {
		return 0
	}
	return len(infos)
}

var twoFileJob = api.JobRequest{Repos: []api.RepoRequest{{
	Site: "local", Roots: []string{"/data"}, Grouper: "single",
}}}

// TestSubmissionGate: the job_submitted fsync is held, and behind it the
// whole job runs — the source is listed, both families extracted — yet
// nothing of it shows outside the process: no 202, no result on the queue,
// no document. Releasing the fsync lets all three out, and the journal
// reads job_submitted < every family/step record < job_terminal.
func TestSubmissionGate(t *testing.T) {
	disk := store.NewMemFS("journal-disk", nil)
	dev := &deviceDir{Dir: journal.StoreDir(disk, "/wal"), release: make(chan struct{})}
	jnl, err := journal.Open(dev, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var src *listCounter
	client, _, deps, done := newTestServerDepsCfg(t, false,
		func(s store.Store) store.Store { src = &listCounter{Store: s}; return src },
		func(opts *deploy.Options) { opts.Journal = jnl })
	defer done()
	defer dev.open()

	type accepted struct {
		id  string
		err error
	}
	answer := make(chan accepted, 1)
	go func() {
		id, err := client.Submit(twoFileJob)
		answer <- accepted{id, err}
	}()

	familiesDone := func() float64 {
		text, err := client.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		return metricValue(t, text, "xtract_families_done_total")
	}
	deadline := time.Now().Add(10 * time.Second)
	for done := familiesDone(); done < 2; done = familiesDone() {
		if time.Now().After(deadline) {
			t.Fatalf("%.0f/2 families done behind the held fsync: the job did not start before its submission was durable", done)
		}
		time.Sleep(time.Millisecond)
	}
	if src.lists.Load() == 0 {
		t.Fatal("families finished without the source store being listed")
	}
	select {
	case a := <-answer:
		t.Fatalf("submission answered (%q, %v) before job_submitted was durable", a.id, a.err)
	default:
	}
	if sent, _ := deps.Queues.Results.Stats(); sent != 0 {
		t.Fatalf("%d results on the queue before job_submitted was durable", sent)
	}
	if n := destDocs(deps.Dest); n != 0 {
		t.Fatalf("%d documents written before job_submitted was durable", n)
	}

	dev.open()
	var a accepted
	select {
	case a = <-answer:
	case <-time.After(10 * time.Second):
		t.Fatal("submission never answered after the fsync was released")
	}
	if a.err != nil || a.id == "" {
		t.Fatalf("submit = %q, %v", a.id, a.err)
	}
	st, err := client.WaitJob(a.id, time.Millisecond, 10*time.Second)
	if err != nil || st.Err != "" {
		t.Fatalf("job: %+v, %v", st, err)
	}
	for deadline = time.Now().Add(10 * time.Second); destDocs(deps.Dest) < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d/2 documents after the gate opened", destDocs(deps.Dest))
		}
		time.Sleep(time.Millisecond)
	}

	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	recs := journalRecords(t, disk, "/wal")
	if len(recs) < 6 {
		t.Fatalf("journal holds %d records, want submission, 2 families, 2+ steps, terminal", len(recs))
	}
	for i, rec := range recs {
		want := ""
		switch i {
		case 0:
			want = journal.RecJobSubmitted
		case len(recs) - 1:
			want = journal.RecJobTerminal
		}
		middle := rec.Type == journal.RecFamilyEnqueued || rec.Type == journal.RecStepCompleted
		if rec.Seq != uint64(i+1) || rec.JobID != a.id || (want != "" && rec.Type != want) || (want == "" && !middle) {
			t.Fatalf("record %d = seq %d %s of %s: order must be job_submitted < family/step records < job_terminal",
				i, rec.Seq, rec.Type, rec.JobID)
		}
	}
}

// TestJournalDeviceErrorDegradesDurabilityOnly: every fsync fails with an
// ENOSPC-style error. The failure is counted, and that is all: the
// submission is still answered with an ID and the job still completes
// with all its documents.
func TestJournalDeviceErrorDegradesDurabilityOnly(t *testing.T) {
	dev := &deviceDir{
		Dir:     journal.StoreDir(store.NewMemFS("journal-disk", nil), "/wal"),
		syncErr: errors.New("write /wal/seg: no space left on device"),
	}
	jnl, err := journal.Open(dev, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	client, _, deps, done := newTestServerDepsCfg(t, false, nil, func(opts *deploy.Options) { opts.Journal = jnl })
	defer done()

	id, err := client.Submit(twoFileJob)
	if err != nil || id == "" {
		t.Fatalf("submit on a full journal device = %q, %v", id, err)
	}
	st, err := client.WaitJob(id, time.Millisecond, 10*time.Second)
	if err != nil || st.Err != "" || st.Stats == nil || st.Stats.FamiliesDone != 2 {
		t.Fatalf("job on a full journal device: %+v, %v", st, err)
	}
	for deadline := time.Now().Add(10 * time.Second); destDocs(deps.Dest) < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d/2 documents on a full journal device", destDocs(deps.Dest))
		}
		time.Sleep(time.Millisecond)
	}
	text, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if n := metricValue(t, text, "xtract_journal_append_errors_total"); n < 1 {
		t.Fatalf("xtract_journal_append_errors_total = %v after failed fsyncs", n)
	}
}

// TestTerminalStateFollowsItsRecord: the job_terminal (or job_cancelled)
// fsync is held. Until it lands the job is not over for anyone — status
// says EXTRACTING and complete:false, the terminal state's listing does
// not have it — because a crash now would bring the job back as running.
// Released, both flip.
func TestTerminalStateFollowsItsRecord(t *testing.T) {
	for _, tc := range []struct {
		name, record, state string
	}{
		{"complete", journal.RecJobTerminal, "COMPLETE"},
		{"cancelled", journal.RecJobCancelled, "CANCELLED"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The batch with the record is held as it is written, ahead of
			// its fsync.
			accepted := make(chan struct{})
			dev := &deviceDir{Dir: journal.StoreDir(store.NewMemFS("journal-disk", nil), "/wal"),
				holdAt: tc.record, written: accepted}
			jnl, err := journal.Open(dev, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// The slow listing keeps the job running until it is cancelled.
			client, _, _, done := newTestServerDepsCfg(t, false,
				func(s store.Store) store.Store { return &slowStore{Store: s, delay: 100 * time.Millisecond} },
				func(opts *deploy.Options) { opts.Journal = jnl })
			defer done()
			defer dev.open()

			id, err := client.Submit(twoFileJob)
			if err != nil {
				t.Fatal(err)
			}
			if tc.record == journal.RecJobCancelled {
				if err := client.CancelJob(id); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case <-accepted:
			case <-time.After(10 * time.Second):
				t.Fatalf("the job never reached its %s record", tc.record)
			}
			listed := func(state string) bool {
				t.Helper()
				list, err := client.ListJobs(state, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, j := range list.Jobs {
					if j.JobID == id {
						return true
					}
				}
				return false
			}
			st, err := client.JobStatus(id)
			if err != nil || st.State != "EXTRACTING" || st.Complete {
				t.Fatalf("status behind the held fsync = %s complete=%v, %v; want EXTRACTING, false", st.State, st.Complete, err)
			}
			if listed(tc.state) || !listed("EXTRACTING") {
				t.Fatalf("listed %s=%v EXTRACTING=%v behind the held fsync; want false, true",
					tc.state, listed(tc.state), listed("EXTRACTING"))
			}

			dev.open()
			st, err = client.WaitJob(id, time.Millisecond, 10*time.Second)
			if err != nil || st.State != tc.state || !st.Complete {
				t.Fatalf("status after release = %s complete=%v, %v; want %s, true", st.State, st.Complete, err, tc.state)
			}
			if !listed(tc.state) || listed("EXTRACTING") {
				t.Fatalf("listed %s=%v EXTRACTING=%v after release; want true, false",
					tc.state, listed(tc.state), listed("EXTRACTING"))
			}
		})
	}
}
