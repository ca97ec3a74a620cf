package validate

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

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

	// obs is nil-safe when Instrument is never called.
	obs *obs.Observer

	// batch makes a batch exclusive from its receive to its delete, so
	// that a Drain which finds nothing visible has also waited out the
	// batch Run was holding.
	batch sync.Mutex
}

// Instrument wires the service to the observability layer: the two
// outcome counters exposed as one family labeled by result (read at
// scrape time), and family_validated and family_rejected events on the
// owning job's trace.
func (s *Service) Instrument(o *obs.Observer) {
	s.obs = o
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
		s.reject(&rec, "decode", err)
		return
	}
	doc, err := s.Validator.Validate(rec)
	if err != nil {
		s.reject(&rec, "validate", err)
		return
	}
	var buf [128]byte // the path is built on the stack; only the string is allocated
	p := append(append(buf[:0], s.DestPrefix...), '/')
	path := string(append(appendSanitized(p, rec.FamilyID), ".json"...))
	if err := s.Dest.Write(path, doc); err != nil {
		s.reject(&rec, "write", err)
		return
	}
	s.Validated.Add(1)
	s.obs.Event(rec.JobID, obs.EvFamilyValidated, slog.String("family", rec.FamilyID), slog.String("doc", path))
}

// reject counts a record whose document was not written and says which
// family it was, where it stopped and why: on the job's trace and in the
// process log. A record that does not decode may name no job or family.
func (s *Service) reject(rec *Record, stage string, err error) {
	s.Rejected.Add(1)
	s.obs.Warn(rec.JobID, obs.EvFamilyRejected, slog.String("family", rec.FamilyID),
		slog.String("stage", stage), slog.String("cause", err.Error()))
}

// appendSanitized appends a family ID as a safe file name: every rune
// outside [A-Za-z0-9._-] becomes one '_', as does each byte of invalid
// UTF-8.
func appendSanitized(dst []byte, id string) []byte {
	for i := 0; i < len(id); {
		b := id[i]
		if b >= utf8.RuneSelf {
			_, size := utf8.DecodeRuneInString(id[i:])
			dst = append(dst, '_')
			i += size
			continue
		}
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9',
			b == '-', b == '_', b == '.':
			dst = append(dst, b)
		default:
			dst = append(dst, '_')
		}
		i++
	}
	return dst
}
