package validate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xtract/internal/store"
)

func sampleRecord() Record {
	return Record{
		JobID:    "job-1",
		FamilyID: "mdf:/data/exp1#0",
		Store:    "petrel",
		BasePath: "/data/exp1",
		Files:    fileList("/data/exp1/POSCAR", "/data/exp1/OUTCAR"),
		Metadata: encoded(map[string]map[string]interface{}{
			"g1/matio": {
				"structure": map[string]interface{}{"n_atoms": 8},
				"results":   map[string]interface{}{"final_energy_ev": -43.4},
			},
		}),
	}
}

func TestPassthroughValidate(t *testing.T) {
	doc, err := (Passthrough{}).Validate(sampleRecord())
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]interface{}
	if err := json.Unmarshal(doc, &out); err != nil {
		t.Fatal(err)
	}
	if out["schema"] != "passthrough/v1" || out["family"] != "mdf:/data/exp1#0" {
		t.Fatalf("doc = %v", out)
	}
}

func TestPassthroughRejectsEmptyFamily(t *testing.T) {
	if _, err := (Passthrough{}).Validate(Record{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
}

func TestMDFClassifiesMaterial(t *testing.T) {
	m := NewMDF("mdf-subset")
	doc, err := m.Validate(sampleRecord())
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]interface{}
	_ = json.Unmarshal(doc, &out)
	mdf := out["mdf"].(map[string]interface{})
	if mdf["schema"] != "mdf.material" {
		t.Fatalf("schema = %v", mdf["schema"])
	}
	if mdf["source_name"] != "mdf-subset" {
		t.Fatalf("source = %v", mdf["source_name"])
	}
	exts := out["extractors"].([]interface{})
	if len(exts) != 1 || exts[0] != "matio" {
		t.Fatalf("extractors = %v", exts)
	}
}

func TestMDFSchemaSelection(t *testing.T) {
	m := NewMDF("x")
	cases := []struct {
		block string
		want  string
	}{
		{"keywords", "mdf.text"},
		{"columns", "mdf.tabular"},
		{"images", "mdf.image"},
		{"entities", "mdf.entity"},
		{"datasets", "mdf.hierarchy"},
		{"functions", "mdf.code"},
		{"entries", "mdf.archive"},
		{"unrecognized_block", "mdf.generic"},
	}
	for _, c := range cases {
		rec := sampleRecord()
		rec.Metadata = encoded(map[string]map[string]interface{}{
			"g/e": {c.block: 1},
		})
		doc, err := m.Validate(rec)
		if err != nil {
			t.Fatalf("%s: %v", c.block, err)
		}
		if !strings.Contains(string(doc), c.want) {
			t.Errorf("block %s → doc lacks schema %s", c.block, c.want)
		}
	}
}

func TestMDFRejects(t *testing.T) {
	m := NewMDF("x")
	if _, err := m.Validate(Record{FamilyID: "f"}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("no-metadata err = %v", err)
	}
	if _, err := m.Validate(Record{Metadata: encoded(map[string]map[string]interface{}{"g/e": {"k": 1}})}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("no-family err = %v", err)
	}
}

func TestDefaultMDFSchemasCount(t *testing.T) {
	if got := len(DefaultMDFSchemas()); got != 12 {
		t.Fatalf("schemas = %d, want 12", got)
	}
}

// doneFunc adapts a function to a Reporter.
type doneFunc func(n int)

func (f doneFunc) Validated(n int) { f(n) }

// reports collects a service's done calls: each batch's count arrives on
// the channel.
func reports() (chan int, doneFunc) {
	ch := make(chan int, 64)
	return ch, func(n int) { ch <- n }
}

// waitReported blocks until the reports add up to n records.
func waitReported(t *testing.T, ch chan int, n int) {
	t.Helper()
	for got := 0; got < n; {
		select {
		case k := <-ch:
			got += k
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d records reported", got, n)
		}
	}
}

func TestServiceValidatesToDestination(t *testing.T) {
	s, stop := runService(t)
	defer stop()
	ch, done := reports()
	s.Submit([]Record{sampleRecord(), {JobID: "job-1"}}, done) // the second names no family
	waitReported(t, ch, 2)

	if s.Validated.Load() != 1 || s.Rejected.Load() != 1 {
		t.Fatalf("validated/rejected = %d/%d", s.Validated.Load(), s.Rejected.Load())
	}
	infos, err := s.Dest.List("/metadata")
	if err != nil || len(infos) != 1 {
		t.Fatalf("dest listing = %v, %v", infos, err)
	}
	data, _ := s.Dest.Read(infos[0].Path)
	var out map[string]interface{}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
}

// runService starts Run over a fresh destination. stop cancels it and
// fails the test unless Run returns promptly.
func runService(t *testing.T) (s *Service, stop func()) {
	t.Helper()
	s = NewService(Passthrough{}, store.NewMemFS("user-endpoint", nil))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(ctx)
	}()
	return s, func() {
		t.Helper()
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Run did not return after cancel")
		}
	}
}

func sampleRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = sampleRecord()
		recs[i].FamilyID = fmt.Sprintf("fam-%d", i)
	}
	return recs
}

// An idle service waits on its ready token alone: each Submit wakes it,
// the second after it has gone idle again included.
func TestRunWakesOnSendNotOnATimer(t *testing.T) {
	s, stop := runService(t)
	defer stop()
	ch, done := reports()
	recs := sampleRecords(2)
	s.Submit(recs[:1], done)
	waitReported(t, ch, 1)
	time.Sleep(5 * time.Millisecond) // let Run block again
	s.Submit(recs[1:], done)
	waitReported(t, ch, 1)
	if s.Validated.Load() != 2 || s.Pending() != 0 {
		t.Fatalf("validated = %d, pending %d; want 2, 0", s.Validated.Load(), s.Pending())
	}
}

// Every record handed over is reported once, to the batch's own hook,
// whichever batch Run takes it in.
func TestRunAcknowledgesEveryRecord(t *testing.T) {
	s, stop := runService(t)
	defer stop()
	const n, per = 200, 7
	recs := sampleRecords(n)
	var mu sync.Mutex
	calls := make(map[int]int) // batch → records reported
	var wg sync.WaitGroup
	for i := 0; i < n; i += per {
		batch := recs[i:min(i+per, n)]
		wg.Add(1)
		s.Submit(batch, doneFunc(func(k int) {
			mu.Lock()
			calls[i] += k
			mu.Unlock()
			wg.Done()
		}))
	}
	wg.Wait()
	for i := 0; i < n; i += per {
		if want := min(i+per, n) - i; calls[i] != want {
			t.Fatalf("batch at %d reported %d records, want %d", i, calls[i], want)
		}
	}
	if s.Pending() != 0 || s.Validated.Load() != n {
		t.Fatalf("pending %d, validated %d; want 0, %d", s.Pending(), s.Validated.Load(), n)
	}
	if infos, err := s.Dest.List("/metadata"); err != nil || len(infos) != n {
		t.Fatalf("destination holds %d documents (%v), want %d", len(infos), err, n)
	}
}

// heldStore parks the first write until release is closed, announcing it
// on entered.
type heldStore struct {
	store.Store
	once             sync.Once
	entered, release chan struct{}
}

func (h *heldStore) Write(path string, data []byte) error {
	h.once.Do(func() {
		close(h.entered)
		<-h.release
	})
	return h.Store.Write(path, data)
}

// A batch is reported only once every document in it is written: the
// report is what lets a job end.
func TestReportFollowsTheWrite(t *testing.T) {
	s, stop := runService(t)
	defer stop()
	held := &heldStore{Store: s.Dest, entered: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(held.release) })
	defer release() // a failed test must not leave Run parked under stop
	s.Dest = held
	ch, done := reports()
	const n = 3
	s.Submit(sampleRecords(n), done)
	<-held.entered
	select {
	case k := <-ch:
		t.Fatalf("%d records reported with a write in flight", k)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	waitReported(t, ch, n)
	if infos, _ := s.Dest.List("/metadata"); len(infos) != n {
		t.Fatalf("%d of %d documents written when the batch was reported", len(infos), n)
	}
}

// failingStore refuses every write.
type failingStore struct{ store.Store }

func (failingStore) Write(string, []byte) error { return errors.New("disk full") }

// A record the validator refuses, or whose document the destination
// refuses, is rejected: counted, and reported like a written one.
func TestServiceRejectsInvalidRecord(t *testing.T) {
	s, stop := runService(t)
	defer stop()
	s.Validator = NewMDF("x")
	ch, done := reports()
	s.Submit([]Record{{FamilyID: "f"}}, done) // no metadata
	waitReported(t, ch, 1)
	if s.Rejected.Load() != 1 {
		t.Fatalf("rejected = %d", s.Rejected.Load())
	}
	s.Validator, s.Dest = Passthrough{}, failingStore{s.Dest}
	s.Submit(sampleRecords(1), done)
	waitReported(t, ch, 1)
	if s.Rejected.Load() != 2 || s.Validated.Load() != 0 || s.Pending() != 0 {
		t.Fatalf("rejected %d, validated %d, pending %d; want 2, 0, 0", s.Rejected.Load(), s.Validated.Load(), s.Pending())
	}
}

func TestSanitize(t *testing.T) {
	sanitize := func(id string) string { return string(appendSanitized(nil, id)) }
	if got := sanitize("mdf:/data/exp1#0"); strings.ContainsAny(got, ":/#") {
		t.Fatalf("sanitize = %q", got)
	}
	if got := sanitize("safe-name_1.2"); got != "safe-name_1.2" {
		t.Fatalf("sanitize mangled safe name: %q", got)
	}
	// One '_' per rune outside the safe set, and per byte of invalid UTF-8.
	if got := sanitize("a\u00e9\u4e16b\xff\xfe"); got != "a__b__" {
		t.Fatalf("sanitize = %q", got)
	}
}
