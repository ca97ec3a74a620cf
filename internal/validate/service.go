package validate

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xtract/internal/obs"
	"xtract/internal/queue"
	"xtract/internal/store"
)

// Service is the asynchronous validation microservice: it drains the
// result queue by event, validates/transforms each record, and writes
// the final JSON document to the user's destination endpoint under
// DestPrefix.
type Service struct {
	Validator Validator
	In        *queue.Queue
	Dest      store.Store
	// DestPrefix is the destination directory for validated documents.
	DestPrefix string
	// Visibility is the queue visibility timeout during validation.
	Visibility time.Duration

	// Validated and Rejected count records by outcome.
	Validated atomic.Int64
	Rejected  atomic.Int64

	// obsEvents is nil-safe when Instrument is never called.
	obsEvents *obs.Tracer

	// batch makes a batch exclusive from its receive to its delete, so
	// that a Drain which finds nothing visible has also waited out the
	// batch Run was holding.
	batch sync.Mutex
}

// Instrument wires the service to the observability layer: the two
// outcome counters exposed as one family labeled by result (read at
// scrape time), and family_validated trace events on the owning job's
// trace.
func (s *Service) Instrument(o *obs.Observer) {
	s.obsEvents = o.Tracer()
	const name, help = "xtract_validate_records_total", "Validation outcomes by result."
	o.Reg().CounterFunc(name, help, map[string]string{"result": "rejected"}, s.Rejected.Load)
	o.Reg().CounterFunc(name, help, map[string]string{"result": "validated"}, s.Validated.Load)
}

// NewService wires a validation service.
func NewService(v Validator, in *queue.Queue, dest store.Store) *Service {
	return &Service{
		Validator:  v,
		In:         in,
		Dest:       dest,
		DestPrefix: "/metadata",
		Visibility: time.Minute,
	}
}

// Run validates records as they arrive until ctx is cancelled. An empty
// queue blocks on its wakeup channel: a send, a Nack, a visibility
// expiry and a fault-suppressed receive all signal it.
func (s *Service) Run(ctx context.Context) {
	for ctx.Err() == nil {
		if s.receive() {
			continue
		}
		select {
		case <-ctx.Done():
		case <-s.In.Ready():
		}
	}
}

// Drain synchronously validates everything currently visible on the
// queue and returns once every record received before it, by Run too, is
// written and acknowledged. Useful at job completion and in tests.
func (s *Service) Drain() {
	for s.receive() {
	}
}

// receive validates one batch and acknowledges it with a single delete,
// reporting whether the queue delivered anything.
func (s *Service) receive() bool {
	s.batch.Lock()
	defer s.batch.Unlock()
	msgs := s.In.Receive(64, s.Visibility)
	receipts := make([]string, len(msgs))
	for i, m := range msgs {
		s.process(m.Body)
		receipts[i] = m.Receipt
	}
	s.In.DeleteBatch(receipts)
	return len(msgs) > 0
}

func (s *Service) process(body []byte) {
	var rec Record
	if err := DecodeRecord(body, &rec); err != nil {
		s.Rejected.Add(1)
		return
	}
	doc, err := s.Validator.Validate(rec)
	if err != nil {
		s.Rejected.Add(1)
		return
	}
	path := fmt.Sprintf("%s/%s.json", s.DestPrefix, sanitize(rec.FamilyID))
	if err := s.Dest.Write(path, doc); err != nil {
		s.Rejected.Add(1)
		return
	}
	s.Validated.Add(1)
	s.obsEvents.Emitf(rec.JobID, obs.EvFamilyValidated, "family=%s doc=%s", rec.FamilyID, path)
}

// sanitize maps a family ID to a safe file name.
func sanitize(id string) string {
	out := make([]rune, 0, len(id))
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
