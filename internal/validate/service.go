package validate

import (
	"context"
	"fmt"
	"time"

	"xtract/internal/metrics"
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

	Validated metrics.Counter
	Rejected  metrics.Counter

	// Observability handles (nil-safe when Instrument is never called).
	obsEvents    *obs.Tracer
	obsRecords   *obs.CounterVec
	obsRejected  *obs.Counter
	obsValidated *obs.Counter
}

// Instrument wires the service to the observability layer: a records
// counter labeled by result (with both outcome series pre-resolved —
// process runs once per record), and family_validated trace events on
// the owning job's trace.
func (s *Service) Instrument(o *obs.Observer) {
	s.obsEvents = o.Tracer()
	s.obsRecords = o.Reg().CounterVec("xtract_validate_records_total",
		"Validation outcomes by result.", "result")
	s.obsRejected = s.obsRecords.With("rejected")
	s.obsValidated = s.obsRecords.With("validated")
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
// queue. Useful at job completion and in tests.
func (s *Service) Drain() {
	for s.receive() {
	}
}

// receive validates one batch and acknowledges it with a single delete,
// reporting whether the queue delivered anything.
func (s *Service) receive() bool {
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
		s.Rejected.Inc()
		s.obsRejected.Inc()
		return
	}
	doc, err := s.Validator.Validate(rec)
	if err != nil {
		s.Rejected.Inc()
		s.obsRejected.Inc()
		return
	}
	path := fmt.Sprintf("%s/%s.json", s.DestPrefix, sanitize(rec.FamilyID))
	if err := s.Dest.Write(path, doc); err != nil {
		s.Rejected.Inc()
		s.obsRejected.Inc()
		return
	}
	s.Validated.Inc()
	s.obsValidated.Inc()
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
