package validate

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"xtract/internal/obs"
	"xtract/internal/store"
)

// Service is the asynchronous validation microservice: it takes finished
// families as Record values, validates/transforms each record, writes the
// final JSON document to the user's destination endpoint under
// DestPrefix, and reports each batch to whoever handed it over.
type Service struct {
	Validator Validator
	Dest      store.Store
	// DestPrefix is the destination directory for validated documents.
	DestPrefix string

	// Validated and Rejected count records by outcome.
	Validated atomic.Int64
	Rejected  atomic.Int64

	// obs is nil-safe when Instrument is never called.
	obs *obs.Observer

	// intake holds the batches Run has not taken yet, oldest first; ready
	// holds at most one token, sent after every append.
	mu      sync.Mutex
	intake  []batch
	ready   chan struct{}
	pending atomic.Int64 // records handed over, not yet reported
}

// batch is one hand-over, with the hook its asker hears it on.
type batch struct {
	recs []Record
	done func(n int)
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
func NewService(v Validator, dest store.Store) *Service {
	return &Service{
		Validator:  v,
		Dest:       dest,
		DestPrefix: "/metadata",
		ready:      make(chan struct{}, 1),
	}
}

// Submit hands recs over. done is called once, from Run's goroutine, with
// len(recs) once every record has been written or rejected, and must not
// block; it is never called if Run stops first. Submit never blocks. recs
// and the bytes its records point at belong to the service from here on:
// the caller never writes them again.
func (s *Service) Submit(recs []Record, done func(n int)) {
	s.pending.Add(int64(len(recs)))
	s.mu.Lock()
	s.intake = append(s.intake, batch{recs, done})
	s.mu.Unlock()
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// Pending returns how many records have been handed over and not yet
// reported.
func (s *Service) Pending() int64 { return s.pending.Load() }

// take removes every waiting batch, oldest first.
func (s *Service) take() []batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.intake
	s.intake = nil
	return out
}

// Run validates what is handed over until ctx is cancelled: each batch
// taken is written whole and then reported. An empty intake blocks on
// the ready token that every Submit sends.
func (s *Service) Run(ctx context.Context) {
	for ctx.Err() == nil {
		batches := s.take()
		for _, b := range batches {
			for i := range b.recs {
				s.process(&b.recs[i])
			}
			s.pending.Add(-int64(len(b.recs)))
			b.done(len(b.recs))
		}
		if len(batches) > 0 {
			continue
		}
		select {
		case <-ctx.Done():
		case <-s.ready:
		}
	}
}

func (s *Service) process(rec *Record) {
	doc, err := s.Validator.Validate(*rec)
	if err != nil {
		s.reject(rec, "validate", err)
		return
	}
	var buf [128]byte // the path is built on the stack; only the string is allocated
	p := append(append(buf[:0], s.DestPrefix...), '/')
	path := string(append(appendSanitized(p, rec.FamilyID), ".json"...))
	if err := s.Dest.Write(path, doc); err != nil {
		s.reject(rec, "write", err)
		return
	}
	s.Validated.Add(1)
	s.obs.Event(rec.JobID, obs.EvFamilyValidated, slog.String("family", rec.FamilyID), slog.String("doc", path))
}

// reject counts a record whose document was not written and says which
// family it was, where it stopped and why: on the job's trace and in the
// process log.
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
