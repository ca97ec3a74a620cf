package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/registry"
	"xtract/internal/store"
)

func memDir(t *testing.T) Dir {
	t.Helper()
	return StoreDir(store.NewMemFS("journal", nil), "/wal")
}

func mustOpen(t *testing.T, dir Dir, opts Options) *Journal {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = clock.NewFake(time.Unix(1700000000, 0))
	}
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func appendN(t *testing.T, j *Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if i == 0 {
			if err := j.Append(Record{Type: RecJobSubmitted, JobID: "job-1",
				Spec: &JobSpec{Repos: []RepoSpec{{Site: "local", Roots: []string{"/"}, Grouper: "single"}}}}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := j.Append(Record{Type: RecStepCompleted, JobID: "job-1",
			FamilyID: fmt.Sprintf("fam-%d", i), GroupID: fmt.Sprintf("g-%d", i), Extractor: "noop",
			CacheKey: &CacheKey{ContentHash: fmt.Sprintf("h-%d", i), Version: "noop@1"},
			Metadata: json.RawMessage(`{"i":` + fmt.Sprint(i) + `}`)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := memDir(t)
	j := mustOpen(t, dir, Options{SegmentBytes: 512, CompactSegments: -1})
	appendN(t, j, 10)
	if err := j.Append(Record{Type: RecJobTerminal, JobID: "job-1", State: "COMPLETE"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, info, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 11 || info.TornTail || info.CorruptSegments != 0 || info.SeqGap {
		t.Fatalf("info = %+v", info)
	}
	if info.Segments < 2 {
		t.Fatalf("expected rotation to produce several segments, got %d", info.Segments)
	}
	job := st.Jobs["job-1"]
	if job == nil || !job.Terminal || job.State != "COMPLETE" {
		t.Fatalf("job state = %+v", job)
	}
	if job.Steps != nil {
		t.Fatalf("terminal job should prune steps, got %d", len(job.Steps))
	}
	if st.LastSeq != 11 {
		t.Fatalf("LastSeq = %d", st.LastSeq)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := memDir(t)
	j := mustOpen(t, dir, Options{CompactSegments: -1})
	appendN(t, j, 5)
	_ = j.Close()

	j2 := mustOpen(t, dir, Options{CompactSegments: -1})
	if got := j2.Recovered().LastSeq; got != 5 {
		t.Fatalf("recovered LastSeq = %d", got)
	}
	if err := j2.Append(Record{Type: RecJobTerminal, JobID: "job-1", State: "COMPLETE"}); err != nil {
		t.Fatal(err)
	}
	_ = j2.Close()

	st, info, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != 6 || info.SeqGap {
		t.Fatalf("LastSeq = %d info = %+v", st.LastSeq, info)
	}
	if !st.Jobs["job-1"].Terminal {
		t.Fatal("terminal record lost across reopen")
	}
}

func TestRecoveredIsACopy(t *testing.T) {
	dir := memDir(t)
	j := mustOpen(t, dir, Options{})
	appendN(t, j, 3)
	before := len(j.Recovered().Jobs)
	appendN(t, j, 2)
	if got := len(j.Recovered().Jobs); got != before {
		t.Fatalf("Recovered mutated by later appends: %d -> %d", before, got)
	}
	_ = j.Close()
}

func TestTornTailTolerated(t *testing.T) {
	fs := store.NewMemFS("journal", nil)
	dir := StoreDir(fs, "/wal")
	j := mustOpen(t, dir, Options{CompactSegments: -1})
	appendN(t, j, 8)
	_ = j.Close()

	// Shear bytes off the single segment's tail: the final record is torn.
	names, _ := dir.List()
	if len(names) != 1 {
		t.Fatalf("segments = %v", names)
	}
	data, _ := dir.Read(names[0])
	if err := fs.Write("/wal/"+names[0], data[:len(data)-5]); err != nil {
		t.Fatal(err)
	}

	st, info, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info.TornTail {
		t.Fatalf("expected torn tail, info = %+v", info)
	}
	if info.Records != 7 || st.LastSeq != 7 {
		t.Fatalf("expected the 7-record prefix, got %d (LastSeq %d)", info.Records, st.LastSeq)
	}
}

func TestCorruptRecordStopsScan(t *testing.T) {
	fs := store.NewMemFS("journal", nil)
	dir := StoreDir(fs, "/wal")
	j := mustOpen(t, dir, Options{CompactSegments: -1})
	appendN(t, j, 8)
	_ = j.Close()

	names, _ := dir.List()
	data, _ := dir.Read(names[0])
	// Bit-flip a byte in the middle: the scan must stop at the damaged
	// frame and keep the intact prefix.
	mid := len(data) / 2
	data[mid] ^= 0xff
	if err := fs.Write("/wal/"+names[0], data); err != nil {
		t.Fatal(err)
	}

	st, info, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.CorruptSegments != 1 {
		t.Fatalf("info = %+v", info)
	}
	if info.Records >= 8 {
		t.Fatalf("corruption not detected: %d records", info.Records)
	}
	if st.LastSeq != uint64(info.Records) {
		t.Fatalf("prefix fold inconsistent: LastSeq %d != records %d", st.LastSeq, info.Records)
	}
}

func TestKillStopsAppends(t *testing.T) {
	dir := memDir(t)
	j := mustOpen(t, dir, Options{})
	appendN(t, j, 4)
	j.Kill()
	if err := j.Append(Record{Type: RecJobTerminal, JobID: "job-1"}); err != ErrKilled {
		t.Fatalf("append after kill = %v", err)
	}
	st, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != 4 {
		t.Fatalf("LastSeq = %d", st.LastSeq)
	}
}

// TestKillAtAppendIsDeterministic: an armed kill fires inside the n-th
// accepted append — that record reports ErrKilled and is never made
// durable, Killed() signals watchers, and the journal refuses everything
// afterwards. This is the hook the crash chaos suite steers by, so its
// accounting must be exact.
func TestKillAtAppendIsDeterministic(t *testing.T) {
	dir := memDir(t)
	j := mustOpen(t, dir, Options{})
	j.KillAtAppend(3)

	appendN(t, j, 2)
	select {
	case <-j.Killed():
		t.Fatal("killed before the armed append")
	default:
	}

	err := j.Append(Record{Type: RecStepCompleted, JobID: "job-1",
		FamilyID: "fam-3", GroupID: "g-3", Extractor: "noop"})
	if err != ErrKilled {
		t.Fatalf("armed append = %v, want ErrKilled", err)
	}
	select {
	case <-j.Killed():
	default:
		t.Fatal("Killed() not signalled after the armed append")
	}
	if err := j.AppendAsync(Record{Type: RecJobTerminal, JobID: "job-1"}); err != ErrKilled {
		t.Fatalf("append after kill = %v, want ErrKilled", err)
	}

	// Only the two accepts before the kill point survive on disk.
	st, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != 2 {
		t.Fatalf("LastSeq = %d, want 2", st.LastSeq)
	}
}

// TestFlushChunksOversizedBatch: a pending batch bigger than a segment
// must split across segment boundaries — otherwise a busy async writer
// would grow one giant segment and compaction would never trigger.
func TestFlushChunksOversizedBatch(t *testing.T) {
	const records = 400
	dir := memDir(t)
	gate := make(chan struct{})
	j := mustOpen(t, gateDir{Dir: dir, gate: gate}, Options{SegmentBytes: 4 << 10, CompactSegments: -1})

	// The first async append starts the flush leader, which stalls on the
	// gated fsync; every append after that piles into one pending batch
	// far larger than a segment.
	if err := j.AppendAsync(Record{Type: RecJobSubmitted, JobID: "job-1",
		Spec: &JobSpec{Repos: []RepoSpec{{Site: "local", Roots: []string{"/"}, Grouper: "single"}}}}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < records; i++ {
		if err := j.AppendAsync(Record{Type: RecStepCompleted, JobID: "job-1",
			FamilyID: fmt.Sprintf("fam-%d", i), GroupID: fmt.Sprintf("g-%d", i), Extractor: "noop"}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, info, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != records {
		t.Fatalf("LastSeq = %d, want %d", st.LastSeq, records)
	}
	if info.Records != records {
		t.Fatalf("replay applied %d records, want %d", info.Records, records)
	}
	if info.Segments < 5 {
		t.Fatalf("replay scanned %d segments, want the oversized batch split across at least 5", info.Segments)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := memDir(t)
	j := mustOpen(t, dir, Options{})
	appendN(t, j, 1)
	_ = j.Close()
	if err := j.Append(Record{Type: RecJobTerminal, JobID: "job-1"}); err != ErrClosed {
		t.Fatalf("append after close = %v", err)
	}
}

// gateDir blocks every segment fsync on a token channel so tests control
// batch boundaries.
type gateDir struct {
	Dir
	gate chan struct{}
}

type gateFile struct {
	File
	gate chan struct{}
}

func (d gateDir) Create(name string) (File, error) {
	f, err := d.Dir.Create(name)
	if err != nil {
		return nil, err
	}
	return gateFile{File: f, gate: d.gate}, nil
}

func (f gateFile) Sync() error {
	<-f.gate
	return f.File.Sync()
}

func TestGroupCommitBatchesConcurrentAppends(t *testing.T) {
	const writers = 64
	gate := make(chan struct{})
	dir := gateDir{Dir: memDir(t), gate: gate}
	j := mustOpen(t, dir, Options{CompactSegments: -1})

	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = j.Append(Record{Type: RecStepRetried, JobID: "job-x", Attempt: i})
		}(i)
	}
	// The first appender becomes leader and parks in Sync; give the rest
	// time to queue behind it, then release fsyncs until every append has
	// been acknowledged — the queued records must ride in a few batches.
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case gate <- struct{}{}:
		case <-done:
			appends, fsyncs, _ := j.Stats()
			if appends != writers {
				t.Errorf("appends = %d, want %d", appends, writers)
			}
			if fsyncs >= writers/2 {
				t.Errorf("group commit did not batch: %d fsyncs for %d appends", fsyncs, writers)
			}
			// Drain any leader still parked before closing.
			go func() {
				for {
					select {
					case gate <- struct{}{}:
					default:
						return
					}
				}
			}()
			_ = j.Close()
			st, _, err := Replay(dir)
			if err != nil {
				t.Fatal(err)
			}
			if st.LastSeq != writers {
				t.Fatalf("LastSeq = %d, want %d", st.LastSeq, writers)
			}
			return
		case <-time.After(5 * time.Second):
			t.Fatal("group commit stalled")
		}
	}
}

func TestSnapshotCompactionBoundsSegments(t *testing.T) {
	dir := memDir(t)
	j := mustOpen(t, dir, Options{SegmentBytes: 256, CompactSegments: 2})
	appendN(t, j, 100)
	_ = j.Close()

	names, _ := dir.List()
	segs, snaps := 0, 0
	for _, n := range names {
		if strings.HasSuffix(n, ".wal") {
			segs++
		}
		if strings.HasSuffix(n, ".snap") {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("snapshots = %d (files %v)", snaps, names)
	}
	if segs > 4 {
		t.Fatalf("compaction did not bound segments: %d live (files %v)", segs, names)
	}

	st, info, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotUsed == "" {
		t.Fatalf("replay ignored the snapshot: %+v", info)
	}
	if st.LastSeq != 100 {
		t.Fatalf("LastSeq = %d", st.LastSeq)
	}
	if got := len(st.Jobs["job-1"].Steps); got != 99 {
		t.Fatalf("steps after snapshot+tail replay = %d", got)
	}
}

func TestExplicitCompact(t *testing.T) {
	dir := memDir(t)
	j := mustOpen(t, dir, Options{CompactSegments: -1})
	appendN(t, j, 20)
	j.Compact()
	appendN2 := func() {
		if err := j.Append(Record{Type: RecJobTerminal, JobID: "job-1", State: "COMPLETE"}); err != nil {
			t.Fatal(err)
		}
	}
	appendN2()
	_ = j.Close()

	st, info, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotUsed == "" {
		t.Fatalf("compact left no snapshot: %+v", info)
	}
	if st.LastSeq != 21 || !st.Jobs["job-1"].Terminal {
		t.Fatalf("state = %+v info = %+v", st.Jobs["job-1"], info)
	}
}

// TestSnapshotEquivalenceProperty pins the compaction contract:
// replay(snapshot + tail) must equal replay(full log) for arbitrary
// record streams and compaction points.
func TestSnapshotEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := clock.NewFake(time.Unix(1700000000, 0))

		full := memDir(t)
		compacted := memDir(t)
		jf := mustOpen(t, full, Options{Clock: clk, SegmentBytes: int64(128 + rng.Intn(512)), CompactSegments: -1})
		jc := mustOpen(t, compacted, Options{Clock: clk, SegmentBytes: int64(128 + rng.Intn(512)), CompactSegments: -1})

		n := 20 + rng.Intn(120)
		jobs := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			jobID := fmt.Sprintf("job-%d", 1+rng.Intn(jobs))
			var rec Record
			switch rng.Intn(6) {
			case 0:
				rec = Record{Type: RecJobSubmitted, JobID: jobID, Spec: &JobSpec{NoCache: rng.Intn(2) == 0}}
			case 1:
				rec = Record{Type: RecFamilyEnqueued, JobID: jobID, FamilyID: fmt.Sprintf("f%d", rng.Intn(9)), Groups: rng.Intn(5)}
			case 2:
				rec = Record{Type: RecStepCompleted, JobID: jobID, FamilyID: fmt.Sprintf("f%d", rng.Intn(9)),
					GroupID: fmt.Sprintf("g%d", rng.Intn(9)), Extractor: "noop",
					Metadata: json.RawMessage(fmt.Sprintf(`{"v":%d}`, rng.Intn(100)))}
				// Half the steps are cacheable, and only those are folded.
				if rng.Intn(2) == 0 {
					rec.CacheKey = &CacheKey{ContentHash: fmt.Sprintf("h%d", rng.Intn(9)), Version: "noop@1"}
				}
			case 3:
				rec = Record{Type: RecStepRetried, JobID: jobID, Attempt: rng.Intn(3)}
			case 4:
				rec = Record{Type: RecStepDeadLettered, JobID: jobID, Reason: "x"}
			case 5:
				rec = Record{Type: RecJobTerminal, JobID: jobID, State: "FAILED", Err: "y"}
			}
			if err := jf.Append(rec); err != nil {
				t.Fatal(err)
			}
			if err := jc.Append(rec); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(10) == 0 {
				jc.Compact()
			}
		}
		_ = jf.Close()
		_ = jc.Close()

		sf, _, err := Replay(full)
		if err != nil {
			t.Fatal(err)
		}
		sc, infoC, err := Replay(compacted)
		if err != nil {
			t.Fatal(err)
		}
		bf, _ := json.Marshal(sf)
		bc, _ := json.Marshal(sc)
		if !bytes.Equal(bf, bc) {
			t.Fatalf("seed %d: replay(snapshot+tail) != replay(full log)\nfull:      %s\ncompacted: %s\ninfo: %+v",
				seed, bf, bc, infoC)
		}
	}
}

// The fold keeps a job's dead-letter report entry by entry, past the
// pruning of a terminal job and through a snapshot, so recovery can hand
// it back. A family enqueued again — a resumed job runs it again — starts
// with none, and the report is capped like the registry's.
func TestFoldKeepsDeadLetters(t *testing.T) {
	at := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	recs := []Record{
		{Type: RecJobSubmitted, JobID: "job-1", Spec: &JobSpec{}},
		{Type: RecFamilyEnqueued, JobID: "job-1", FamilyID: "f1"},
		{Type: RecFamilyEnqueued, JobID: "job-1", FamilyID: "f2"},
		{Type: RecStepDeadLettered, JobID: "job-1", At: at, FamilyID: "f1", GroupID: "g", Extractor: "keyword", Attempt: 3, Reason: "boom"},
		{Type: RecFamilyFailed, JobID: "job-1", At: at, FamilyID: "f2", Attempt: 2, Reason: "staging failed"},
		{Type: RecFamilyEnqueued, JobID: "job-1", FamilyID: "f1"}, // resumed: f1 runs again
	}
	for i := 0; i < registry.MaxDeadLetters; i++ {
		recs = append(recs, Record{Type: RecStepDeadLettered, JobID: "job-1", At: at, FamilyID: "f3", GroupID: fmt.Sprint(i), Reason: "x"})
	}
	recs = append(recs, Record{Type: RecJobCancelled, JobID: "job-1"})
	dir := memDir(t)
	j := mustOpen(t, dir, Options{CompactSegments: -1})
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Compact()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, info, err := Replay(dir)
	if err != nil || info.SnapshotUsed == "" {
		t.Fatalf("replay = %+v, %v; want it to start from the snapshot", info, err)
	}
	js := st.Jobs["job-1"]
	if !js.Cancelled || js.Steps != nil || len(js.DeadLetters) != registry.MaxDeadLetters {
		t.Fatalf("job = cancelled %v, %d steps, %d dead letters; want cancelled, pruned, %d letters",
			js.Cancelled, len(js.Steps), len(js.DeadLetters), registry.MaxDeadLetters)
	}
	first := js.DeadLetters[0]
	if want := (registry.DeadLetter{Kind: "family", FamilyID: "f2", Attempts: 2, Reason: "staging failed", At: first.At}); first != want || !first.At.Equal(at) {
		t.Fatalf("first dead letter = %+v, want %+v at %v", first, want, at)
	}
	for _, dl := range js.DeadLetters {
		if dl.FamilyID == "f1" {
			t.Fatalf("the family enqueued again kept its earlier dead letter: %+v", dl)
		}
	}
}

func TestOSDirRoundTrip(t *testing.T) {
	dir, err := OSDir(t.TempDir() + "/wal")
	if err != nil {
		t.Fatal(err)
	}
	j := mustOpen(t, dir, Options{SegmentBytes: 256, CompactSegments: 2})
	appendN(t, j, 40)
	_ = j.Close()

	st, info, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != 40 {
		t.Fatalf("LastSeq = %d info = %+v", st.LastSeq, info)
	}
	// Reopen and keep writing on real files.
	j2 := mustOpen(t, dir, Options{})
	if err := j2.Append(Record{Type: RecJobTerminal, JobID: "job-1", State: "COMPLETE"}); err != nil {
		t.Fatal(err)
	}
	_ = j2.Close()
	st, _, err = Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != 41 || !st.Jobs["job-1"].Terminal {
		t.Fatalf("reopened OSDir state = %+v", st.Jobs["job-1"])
	}
}

// TestObserverHooks: the journal counts what it accepts, by type, and
// hands each fsync's duration to the hook Observe installs.
func TestObserverHooks(t *testing.T) {
	var fsyncs int
	j := mustOpen(t, memDir(t), Options{})
	j.Observe(func(time.Duration) { fsyncs++ })
	appendN(t, j, 3)
	_ = j.Close()
	appends, batches, _ := j.Stats()
	if got := j.Appends(RecJobSubmitted); got != 1 || j.Appends(RecStepCompleted) != 2 || appends != 3 {
		t.Fatalf("appends by type = %d submitted, %d steps, %d in all; want 1, 2, 3",
			got, j.Appends(RecStepCompleted), appends)
	}
	if fsyncs == 0 || int64(fsyncs) != batches {
		t.Fatalf("%d fsyncs observed, %d batches", fsyncs, batches)
	}
}

// TestRecordEncoderMatchesEncodingJSON pins the hot-path encoder to the
// Record struct tags: for a spread of records (every field populated,
// strings needing escapes, non-ASCII, raw metadata) the hand-rolled
// encoding must decode to exactly the record encoding/json would have
// produced, and the framed form must pass CRC verification.
func TestRecordEncoderMatchesEncodingJSON(t *testing.T) {
	at := time.Date(2026, 8, 5, 12, 34, 56, 789123456, time.UTC)
	recs := []Record{
		{Seq: 1, Type: RecJobSubmitted, JobID: "job-1", At: at,
			Spec: &JobSpec{Repos: []RepoSpec{{Site: "s", Roots: []string{"/p"}, Grouper: "single", NoMinTransfers: true}}, NoCache: true}},
		{Seq: 2, Type: RecFamilyEnqueued, JobID: "job-1", At: at, FamilyID: "s:/p#0", Groups: 3},
		{Seq: 3, Type: RecStepCompleted, JobID: "job-1", At: at,
			FamilyID: "s:/p#0", GroupID: "s:/p#0#f0", Extractor: "keyword", Cached: true,
			CacheKey: &CacheKey{ContentHash: "abc123", Version: "keyword@2"},
			Metadata: json.RawMessage(`{"score":0.5,"terms":["a","b"]}`)},
		{Seq: 4, Type: RecStepRetried, JobID: "job-1", At: at,
			FamilyID: "f", GroupID: "g", Extractor: "matio", Attempt: 2, Reason: "fault injected"},
		{Seq: 5, Type: RecStepDeadLettered, JobID: "job-1", At: at,
			FamilyID: "f", GroupID: "g", Extractor: "matio", Attempt: 3, Reason: `exhausted "retries"`},
		{Seq: 6, Type: RecFamilyFailed, JobID: "job-1", At: at, FamilyID: "f", Err: "boom\nnewline"},
		{Seq: 7, Type: RecJobCancelled, JobID: "job-2", At: at, Err: "context canceled"},
		{Seq: 8, Type: RecJobTerminal, JobID: "job-1", At: at, State: "COMPLETE"},
		// Escaping torture: quotes, backslashes, control bytes, HTML
		// specials, and multi-byte UTF-8 in every string field.
		{Seq: 9, Type: RecStepCompleted, JobID: `jo"b\9`, At: at,
			FamilyID: "päth/<&>#0", GroupID: "g\tid", Extractor: "ключ", Reason: "\x01\x1f",
			State: "日本語", Err: `back\slash "quote"`},
		// Minimal record: every optional field empty.
		{Seq: 10, Type: RecJobTerminal, JobID: "job-3", At: at},
		// Cluster lease records carry node, fencing epoch, and TTL.
		{Seq: 11, Type: RecLeaseAcquired, JobID: "job-n1-1", At: at,
			Node: "n1", Epoch: 3, TTLMS: 10000},
		{Seq: 12, Type: RecLeaseRenewed, JobID: "job-n1-1", At: at,
			Node: `n"2`, Epoch: 4, TTLMS: 250},
		{Seq: 13, Type: RecLeaseReleased, JobID: "job-n1-1", At: at,
			Node: "n1", Epoch: 4},
	}
	for _, rec := range recs {
		fast, err := appendRecordJSON(nil, &rec)
		if err != nil {
			t.Fatalf("appendRecordJSON(%s): %v", rec.Type, err)
		}
		var got, want Record
		if err := json.Unmarshal(fast, &got); err != nil {
			t.Fatalf("fast encoding of %s is invalid JSON: %v\n%s", rec.Type, err, fast)
		}
		slow, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(slow, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("encoder divergence for %s:\nfast: %s\nslow: %s", rec.Type, fast, slow)
		}
		framed, err := appendRecordFrame(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		payload, next, ok := readFrame(framed, 0, maxRecordBytes)
		if !ok || next != len(framed) || !bytes.Equal(payload, fast) {
			t.Fatalf("frame round trip broken for %s", rec.Type)
		}
	}
}

// TestRecordEncoderDeferredMetadata pins the MetadataObj path: a record
// carrying the live map must encode byte-identical to the same record
// carrying pre-marshaled Metadata bytes, the leader must materialize the
// raw form onto the record (live state and compaction snapshots read
// it), and an unencodable map must drop the field silently — the same
// outcome as the old accept-side `if err == nil` marshal.
func TestRecordEncoderDeferredMetadata(t *testing.T) {
	at := time.Date(2026, 8, 5, 12, 34, 56, 789123456, time.UTC)
	mds := []map[string]interface{}{
		{},
		{"score": 0.5, "terms": []interface{}{"a", "b"}},
		{"näme<&>": map[string]interface{}{"deep": nil, "n": float64(-3)}},
	}
	for i, md := range mds {
		deferred := Record{Seq: 9, Type: RecStepCompleted, JobID: "j", At: at,
			FamilyID: "f", GroupID: "g", Extractor: "x", MetadataObj: md}
		blob, err := json.Marshal(md)
		if err != nil {
			t.Fatal(err)
		}
		eager := deferred
		eager.MetadataObj = nil
		eager.Metadata = blob

		got, err := appendRecordJSON(nil, &deferred)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want, err := appendRecordJSON(nil, &eager)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d divergence:\ndeferred: %s\neager:    %s", i, got, want)
		}
		// The encoder materializes the raw bytes onto the record so the
		// leader's state fold (and with it compaction snapshots and
		// JobSnapshot) sees the same Metadata replay would decode.
		if !bytes.Equal(deferred.Metadata, blob) {
			t.Errorf("case %d: materialized Metadata = %s, want %s",
				i, deferred.Metadata, blob)
		}
	}

	// Unencodable metadata: drop the field, keep the record.
	bad := Record{Seq: 10, Type: RecStepCompleted, JobID: "j", At: at,
		FamilyID: "f", GroupID: "g", Extractor: "x",
		MetadataObj: map[string]interface{}{"v": make(chan int)}}
	none := bad
	none.MetadataObj = nil
	got, err := appendRecordJSON(nil, &bad)
	if err != nil {
		t.Fatal(err)
	}
	want, err := appendRecordJSON(nil, &none)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("bad metadata should drop the field:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestDeferredMetadataVisibleInSnapshot drives a real writer end to end:
// a step completed with MetadataObj must surface its metadata bytes in
// JobSnapshot after the flush, not just on disk.
func TestDeferredMetadataVisibleInSnapshot(t *testing.T) {
	j := mustOpen(t, memDir(t), Options{})
	defer j.Close()
	if err := j.Append(Record{Type: RecJobSubmitted, JobID: "job-1",
		Spec: &JobSpec{}}); err != nil {
		t.Fatal(err)
	}
	md := map[string]interface{}{"rows": float64(3), "label": "ok"}
	if err := j.Append(Record{Type: RecStepCompleted, JobID: "job-1",
		FamilyID: "f", GroupID: "g", Extractor: "x", MetadataObj: md,
		CacheKey: &CacheKey{ContentHash: "h", Version: "x@1"}}); err != nil {
		t.Fatal(err)
	}
	snap, ok := j.JobSnapshot("job-1")
	if !ok {
		t.Fatal("job missing from snapshot")
	}
	step, ok := snap.Steps[StepKey("f", "g", "x")]
	if !ok {
		t.Fatal("step missing from snapshot")
	}
	want, _ := json.Marshal(md)
	if !bytes.Equal(step.Metadata, want) {
		t.Fatalf("snapshot metadata = %s, want %s", step.Metadata, want)
	}
}

// TestOversizedStepIsJournaledWithoutMetadata: a step completion whose
// frame would pass the bound replay holds segments to is written without
// its metadata — recovery re-extracts that step — so neither it nor the
// records after it are lost to replay.
func TestOversizedStepIsJournaledWithoutMetadata(t *testing.T) {
	dir := memDir(t)
	j := mustOpen(t, dir, Options{CompactSegments: -1})
	key := &CacheKey{ContentHash: "h", Version: "x@1"}
	huge := json.RawMessage(`{"blob":"` + strings.Repeat("x", maxRecordBytes) + `"}`)
	for _, rec := range []Record{
		{Type: RecJobSubmitted, JobID: "job-1", Spec: &JobSpec{}},
		{Type: RecStepCompleted, JobID: "job-1", FamilyID: "f", GroupID: "huge", Extractor: "x", CacheKey: key, Metadata: huge},
		{Type: RecStepCompleted, JobID: "job-1", FamilyID: "f", GroupID: "small", Extractor: "x", CacheKey: key, Metadata: json.RawMessage(`{"v":1}`)},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	live, _ := j.JobSnapshot("job-1")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, info, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != 3 || info.Records != 3 || info.CorruptSegments != 0 || info.SeqGap {
		t.Fatalf("replay = LastSeq %d, %+v; want all 3 records, undamaged", st.LastSeq, info)
	}
	for name, js := range map[string]*JobState{"live": live, "replayed": st.Jobs["job-1"]} {
		if _, ok := js.Steps[StepKey("f", "small", "x")]; !ok || len(js.Steps) != 1 {
			t.Fatalf("%s fold holds %d steps; want only the small one", name, len(js.Steps))
		}
	}
}

// TestOversizedRecordIsAnEncodeError: any other record over the bound is
// refused like an unencodable one, and nothing replay would take for
// damage reaches the segment.
func TestOversizedRecordIsAnEncodeError(t *testing.T) {
	dir := memDir(t)
	j := mustOpen(t, dir, Options{CompactSegments: -1})
	appendN(t, j, 1)
	err := j.Append(Record{Type: RecStepDeadLettered, JobID: "job-1", FamilyID: "f",
		Reason: strings.Repeat("x", maxRecordBytes)})
	if !errors.Is(err, errRecordTooLarge) {
		t.Fatalf("oversized append = %v, want errRecordTooLarge", err)
	}
	_ = j.Close()
	st, info, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != 1 || info.CorruptSegments != 0 || info.TornTail {
		t.Fatalf("replay = LastSeq %d, %+v; want the submission alone, undamaged", st.LastSeq, info)
	}
}
