package core

import (
	"strings"
	"sync"

	"xtract/internal/fastjson"
)

// This file is the hot-path wire codec for the dispatch pipeline:
// hand-rolled append-style encoders and pull decoders for the task
// payload and task result shapes, byte-identical to encoding/json on the
// same structs (pinned by the equivalence and fuzz suites in
// codec_test.go). Reflection-driven marshaling was the dominant per-task
// allocation source; these codecs write into pooled scratch instead.
//
// Pool ownership discipline: getPayloadBuf hands out a scratch slice
// whose bytes may be passed only to copying consumers (queue.Send/
// SendBatch and faas.SubmitBatch copy every body before returning), and
// putPayloadBuf must be called only after that hand-off. After release
// the bytes belong to the next getPayloadBuf caller — never retain or
// mutate them. DESIGN.md section 16 documents the full rules.

// maxPooledPayload caps the capacity of recycled payload scratch: one
// giant validation record must not pin its buffer in the pool forever.
const maxPooledPayload = 1 << 18

// payloadBufPool recycles JSON encode scratch for task payloads and
// validation records.
var payloadBufPool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 1<<10)
	return &b
}}

func getPayloadBuf() *[]byte { return payloadBufPool.Get().(*[]byte) }

func putPayloadBuf(b *[]byte) {
	if cap(*b) > maxPooledPayload {
		return
	}
	*b = (*b)[:0]
	payloadBufPool.Put(b)
}

// fieldIs reports whether a decoded object key selects the named struct
// field, using encoding/json's matching: exact first, then
// case-insensitive.
func fieldIs(key []byte, name string) bool {
	if string(key) == name {
		return true
	}
	return strings.EqualFold(string(key), name)
}

// encodeTaskPayload appends t as JSON, byte-identical to
// encoding/json.Marshal(t).
func encodeTaskPayload(dst []byte, t *taskPayload) []byte {
	dst = append(dst, `{"extractor":`...)
	dst = fastjson.AppendString(dst, t.Extractor)
	dst = append(dst, `,"site":`...)
	dst = fastjson.AppendString(dst, t.Site)
	dst = append(dst, `,"steps":`...)
	if t.Steps == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range t.Steps {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = encodeStepPayload(dst, &t.Steps[i])
		}
		dst = append(dst, ']')
	}
	if t.Checkpoint {
		dst = append(dst, `,"checkpoint":true`...)
	}
	return append(dst, '}')
}

func encodeStepPayload(dst []byte, sp *stepPayload) []byte {
	dst = append(dst, `{"family_id":`...)
	dst = fastjson.AppendString(dst, sp.FamilyID)
	dst = append(dst, `,"group_id":`...)
	dst = fastjson.AppendString(dst, sp.GroupID)
	dst = append(dst, `,"files":`...)
	if sp.Files == nil {
		dst = append(dst, "null"...)
	} else {
		dst = fastjson.AppendStringMap(dst, sp.Files)
	}
	if sp.FetchFrom != "" {
		dst = append(dst, `,"fetch_from":`...)
		dst = fastjson.AppendString(dst, sp.FetchFrom)
	}
	return append(dst, '}')
}

// decodeTaskPayload parses data into t with encoding/json's struct
// semantics: unknown fields skipped, null fields left untouched,
// case-insensitive key fallback, duplicate map keys merged.
func decodeTaskPayload(data []byte, t *taskPayload) error {
	d := fastjson.NewDec(data)
	if d.Null() {
		return d.End()
	}
	err := d.ObjEach(func(key []byte) error {
		var err error
		switch {
		case fieldIs(key, "extractor"):
			if !d.Null() {
				t.Extractor, err = d.Str()
			}
		case fieldIs(key, "site"):
			if !d.Null() {
				t.Site, err = d.Str()
			}
		case fieldIs(key, "steps"):
			if d.Null() {
				break
			}
			t.Steps = t.Steps[:0]
			err = d.ArrEach(func() error {
				// Grow like encoding/json: slots within capacity keep their
				// prior contents (visible when a duplicate key re-decodes the
				// slice), fresh slots are zero.
				if len(t.Steps) < cap(t.Steps) {
					t.Steps = t.Steps[:len(t.Steps)+1]
				} else {
					t.Steps = append(t.Steps, stepPayload{})
				}
				return decodeStepPayload(d, &t.Steps[len(t.Steps)-1])
			})
			if err == nil && t.Steps == nil {
				// encoding/json turns an empty JSON array into a
				// non-nil empty slice.
				t.Steps = []stepPayload{}
			}
		case fieldIs(key, "checkpoint"):
			if !d.Null() {
				t.Checkpoint, err = d.Bool()
			}
		default:
			err = d.Skip()
		}
		return err
	})
	if err != nil {
		return err
	}
	return d.End()
}

func decodeStepPayload(d *fastjson.Dec, sp *stepPayload) error {
	if d.Null() {
		return nil
	}
	return d.ObjEach(func(key []byte) error {
		var err error
		switch {
		case fieldIs(key, "family_id"):
			if !d.Null() {
				sp.FamilyID, err = d.Str()
			}
		case fieldIs(key, "group_id"):
			if !d.Null() {
				sp.GroupID, err = d.Str()
			}
		case fieldIs(key, "files"):
			if d.Null() {
				break
			}
			if sp.Files == nil {
				sp.Files = make(map[string]string, 8)
			}
			err = d.ObjEach(func(k []byte) error {
				name := string(k)
				if d.Null() {
					sp.Files[name] = ""
					return nil
				}
				v, e := d.Str()
				if e != nil {
					return e
				}
				sp.Files[name] = v
				return nil
			})
		case fieldIs(key, "fetch_from"):
			if !d.Null() {
				sp.FetchFrom, err = d.Str()
			}
		default:
			err = d.Skip()
		}
		return err
	})
}

// encodeTaskResult appends r as JSON, byte-identical to
// encoding/json.Marshal(r). The only error source is unencodable
// metadata (NaN/Inf floats), which encoding/json rejects too.
func encodeTaskResult(dst []byte, r *taskResult) ([]byte, error) {
	dst = append(dst, `{"extractor":`...)
	dst = fastjson.AppendString(dst, r.Extractor)
	dst = append(dst, `,"outcomes":`...)
	if r.Outcomes == nil {
		return append(append(dst, "null"...), '}'), nil
	}
	dst = append(dst, '[')
	var err error
	for i := range r.Outcomes {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = encodeStepOutcome(dst, &r.Outcomes[i]); err != nil {
			return dst, err
		}
	}
	return append(append(dst, ']'), '}'), nil
}

func encodeStepOutcome(dst []byte, o *stepOutcome) ([]byte, error) {
	dst = append(dst, `{"family_id":`...)
	dst = fastjson.AppendString(dst, o.FamilyID)
	dst = append(dst, `,"group_id":`...)
	dst = fastjson.AppendString(dst, o.GroupID)
	if o.OK {
		dst = append(dst, `,"ok":true`...)
	} else {
		dst = append(dst, `,"ok":false`...)
	}
	if o.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = fastjson.AppendString(dst, o.Err)
	}
	if len(o.Metadata) > 0 {
		dst = append(dst, `,"metadata":`...)
		var err error
		if dst, err = fastjson.AppendValue(dst, o.Metadata); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `,"extract_ms":`...)
	dst, err := fastjson.AppendFloat(dst, o.ExtractMS)
	if err != nil {
		return dst, err
	}
	if o.FromCheckpoint {
		dst = append(dst, `,"from_checkpoint":true`...)
	}
	return append(dst, '}'), nil
}

// decodeTaskResult parses data into r with encoding/json's struct
// semantics.
func decodeTaskResult(data []byte, r *taskResult) error {
	d := fastjson.NewDec(data)
	if d.Null() {
		return d.End()
	}
	err := d.ObjEach(func(key []byte) error {
		var err error
		switch {
		case fieldIs(key, "extractor"):
			if !d.Null() {
				r.Extractor, err = d.Str()
			}
		case fieldIs(key, "outcomes"):
			if d.Null() {
				break
			}
			r.Outcomes = r.Outcomes[:0]
			err = d.ArrEach(func() error {
				if len(r.Outcomes) < cap(r.Outcomes) {
					r.Outcomes = r.Outcomes[:len(r.Outcomes)+1]
				} else {
					r.Outcomes = append(r.Outcomes, stepOutcome{})
				}
				return decodeStepOutcome(d, &r.Outcomes[len(r.Outcomes)-1])
			})
			if err == nil && r.Outcomes == nil {
				r.Outcomes = []stepOutcome{}
			}
		default:
			err = d.Skip()
		}
		return err
	})
	if err != nil {
		return err
	}
	return d.End()
}

func decodeStepOutcome(d *fastjson.Dec, o *stepOutcome) error {
	if d.Null() {
		return nil
	}
	return d.ObjEach(func(key []byte) error {
		var err error
		switch {
		case fieldIs(key, "family_id"):
			if !d.Null() {
				o.FamilyID, err = d.Str()
			}
		case fieldIs(key, "group_id"):
			if !d.Null() {
				o.GroupID, err = d.Str()
			}
		case fieldIs(key, "ok"):
			if !d.Null() {
				o.OK, err = d.Bool()
			}
		case fieldIs(key, "err"):
			if !d.Null() {
				o.Err, err = d.Str()
			}
		case fieldIs(key, "metadata"):
			if d.Null() {
				break
			}
			if o.Metadata == nil {
				o.Metadata = make(map[string]interface{}, 8)
			}
			err = d.ObjEach(func(k []byte) error {
				name := string(k)
				v, e := d.Value()
				if e != nil {
					return e
				}
				o.Metadata[name] = v
				return nil
			})
		case fieldIs(key, "extract_ms"):
			if !d.Null() {
				o.ExtractMS, err = d.Float()
			}
		case fieldIs(key, "from_checkpoint"):
			if !d.Null() {
				o.FromCheckpoint, err = d.Bool()
			}
		default:
			err = d.Skip()
		}
		return err
	})
}
