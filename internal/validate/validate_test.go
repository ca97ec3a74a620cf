package validate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/queue"
	"xtract/internal/store"
)

func sampleRecord() Record {
	return Record{
		JobID:    "job-1",
		FamilyID: "mdf:/data/exp1#0",
		Store:    "petrel",
		BasePath: "/data/exp1",
		Files:    []string{"/data/exp1/POSCAR", "/data/exp1/OUTCAR"},
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

func TestServiceValidatesToDestination(t *testing.T) {
	clk := clock.NewReal()
	in := queue.New("results", clk)
	dest := store.NewMemFS("user-endpoint", nil)
	s := NewService(Passthrough{}, in, dest)

	body, _ := json.Marshal(sampleRecord())
	in.Send(body)
	in.Send([]byte("corrupt"))
	s.Drain()

	if s.Validated.Load() != 1 || s.Rejected.Load() != 1 {
		t.Fatalf("validated/rejected = %d/%d", s.Validated.Load(), s.Rejected.Load())
	}
	infos, err := dest.List("/metadata")
	if err != nil || len(infos) != 1 {
		t.Fatalf("dest listing = %v, %v", infos, err)
	}
	data, _ := dest.Read(infos[0].Path)
	var out map[string]interface{}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
}

// runService starts Run over a results queue on a fake clock that the
// test never advances, so whatever the service does it does by event.
// stop cancels it and fails the test unless Run returns promptly.
func runService(t *testing.T) (s *Service, in *queue.Queue, clk *clock.Fake, stop func()) {
	t.Helper()
	clk = clock.NewFake(time.Unix(0, 0))
	in = queue.New("results", clk)
	s = NewService(Passthrough{}, in, store.NewMemFS("user-endpoint", nil))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(ctx)
	}()
	return s, in, clk, func() {
		t.Helper()
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Run did not return after cancel")
		}
	}
}

// waitAcked blocks until the queue has seen n deletes.
func waitAcked(t *testing.T, in *queue.Queue, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, deleted := in.Stats(); deleted == n {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("queue acknowledged %d records, want %d", deleted, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func recordBodies(n int) [][]byte {
	bodies := make([][]byte, n)
	for i := range bodies {
		rec := sampleRecord()
		rec.FamilyID = fmt.Sprintf("fam-%d", i)
		bodies[i], _ = AppendRecord(nil, &rec)
	}
	return bodies
}

func TestRunWakesOnSendNotOnATimer(t *testing.T) {
	s, in, clk, stop := runService(t)
	defer stop()
	if n := clk.PendingTimers(); n != 0 {
		t.Fatalf("idle service holds %d timers", n)
	}
	bodies := recordBodies(2)
	in.Send(bodies[0])
	waitAcked(t, in, 1)
	// The only timer left is the queue's own visibility deadline; once it
	// has fired nothing is waiting on the clock, and the service still
	// picks up the next record.
	clk.Advance(2 * s.Visibility)
	if n := clk.PendingTimers(); n != 0 {
		t.Fatalf("service between records holds %d timers", n)
	}
	in.Send(bodies[1])
	waitAcked(t, in, 2)
	if s.Validated.Load() != 2 {
		t.Fatalf("validated = %d, want 2", s.Validated.Load())
	}
}

func TestRunAcknowledgesEveryRecord(t *testing.T) {
	s, in, _, stop := runService(t)
	defer stop()
	const n = 200 // several receive batches
	in.SendBatch(recordBodies(n))
	waitAcked(t, in, n)
	if in.InFlight() != 0 || in.Len() != 0 || s.Validated.Load() != n {
		t.Fatalf("in flight %d, visible %d, validated %d; want 0, 0, %d",
			in.InFlight(), in.Len(), s.Validated.Load(), n)
	}
	if infos, err := s.Dest.List("/metadata"); err != nil || len(infos) != n {
		t.Fatalf("destination holds %d documents (%v), want %d", len(infos), err, n)
	}
}

// heldStore parks the first write until release is closed, announcing it
// on entered: a Run-side batch caught between its receive and its delete.
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

// Drain is the barrier its callers print and exit on: with Run holding a
// received batch — nothing visible on the queue, nothing written yet — it
// returns only once that batch is at the destination. (At the parent
// commit it returned at once and `xtract extract` lost those documents.)
func TestDrainWaitsForTheBatchInFlight(t *testing.T) {
	s, in, _, stop := runService(t)
	defer stop()
	held := &heldStore{Store: s.Dest, entered: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(held.release) })
	defer release() // a failed test must not leave Run parked under stop
	s.Dest = held
	const n = 3
	in.SendBatch(recordBodies(n))
	<-held.entered

	written := make(chan int)
	go func() {
		s.Drain()
		infos, _ := s.Dest.List("/metadata")
		written <- len(infos)
	}()
	select {
	case got := <-written:
		t.Fatalf("Drain returned with a batch in flight and %d of %d documents written", got, n)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if got := <-written; got != n {
		t.Fatalf("%d of %d documents written when Drain returned", got, n)
	}
}

// failFirst suppresses the first n deliveries of a queue.
type failFirst struct{ left atomic.Int32 }

func (f *failFirst) ReceiveFault(string) bool { return f.left.Add(-1) >= 0 }

// A suppressed receive spends the wakeup token; the queue re-signals it,
// and that alone must bring the service back.
func TestRunNotStalledByReceiveFault(t *testing.T) {
	_, in, _, stop := runService(t)
	defer stop()
	hook := &failFirst{}
	hook.left.Store(3)
	in.SetFaults(hook)
	in.Send(recordBodies(1)[0])
	waitAcked(t, in, 1)
	if left := hook.left.Load(); left >= 0 {
		t.Fatalf("only %d of 3 faults fired", 3-left)
	}
}

func TestServiceRejectsInvalidRecord(t *testing.T) {
	clk := clock.NewReal()
	in := queue.New("results", clk)
	dest := store.NewMemFS("user-endpoint", nil)
	s := NewService(NewMDF("x"), in, dest)
	body, _ := json.Marshal(Record{FamilyID: "f"}) // no metadata
	in.Send(body)
	s.Drain()
	if s.Rejected.Load() != 1 {
		t.Fatalf("rejected = %d", s.Rejected.Load())
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("mdf:/data/exp1#0"); strings.ContainsAny(got, ":/#") {
		t.Fatalf("sanitize = %q", got)
	}
	if got := sanitize("safe-name_1.2"); got != "safe-name_1.2" {
		t.Fatalf("sanitize mangled safe name: %q", got)
	}
}
