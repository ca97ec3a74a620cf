package core

import (
	"xtract/internal/fastjson"
)

// This file is the hot-path wire codec for the dispatch pipeline:
// hand-rolled append-style encoders and pull decoders for the task
// payload and task result shapes, both internal formats (see below).
// Reflection-driven marshaling was the dominant per-task allocation
// source; these codecs append into a buffer sized once by the caller.
//
// Payload ownership: each task's payload is its own slice. The FaaS
// fabric keeps what SubmitBatch is given and its handler only reads it,
// so nobody writes those bytes after submission; queue.Send/SendBatch
// copy every body. DESIGN.md section 16 documents the rules.

// The task payload and the task result are internal formats: the shard
// writes the payload and the handler of the same binary reads it, the
// handler writes the result and the pump reads it. Both are JSON in the
// field order and with the omitempty rules of handler.go's struct tags,
// but the decoders are strict -- exact lower-case keys, unknown keys
// skipped, a repeated key replaces the earlier value, null only where the
// encoder writes it -- and owe encoding/json nothing beyond reading back
// what the encoders wrote.

// encodeTaskPayload appends t's body to dst.
func encodeTaskPayload(dst []byte, t *taskPayload) []byte {
	dst = append(dst, `{"extractor":`...)
	dst = fastjson.AppendString(dst, t.Extractor)
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
	return append(dst, '}')
}

func encodeStepPayload(dst []byte, sp *stepPayload) []byte {
	dst = append(dst, `{"family_id":`...)
	dst = fastjson.AppendString(dst, sp.FamilyID)
	dst = append(dst, `,"group_id":`...)
	dst = fastjson.AppendString(dst, sp.GroupID)
	dst = fastjson.AppendStrings(append(dst, `,"files":`...), sp.Files)
	if sp.Stage != "" {
		dst = append(dst, `,"stage":`...)
		dst = fastjson.AppendString(dst, sp.Stage)
	}
	if sp.FetchFrom != "" {
		dst = append(dst, `,"fetch_from":`...)
		dst = fastjson.AppendString(dst, sp.FetchFrom)
	}
	if sp.ContentHash != "" {
		dst = append(dst, `,"content_hash":`...)
		dst = fastjson.AppendString(dst, sp.ContentHash)
	}
	return append(dst, '}')
}

// decodeTaskPayload parses a task body into t.
func decodeTaskPayload(data []byte, t *taskPayload) error {
	d := fastjson.NewDec(data)
	err := d.ObjEach(func(key []byte) (err error) {
		switch string(key) {
		case "extractor":
			t.Extractor, err = d.Str()
		case "steps":
			t.Steps = nil
			if !d.Null() {
				t.Steps = []stepPayload{}
				err = d.ArrEach(func() error {
					sp, err := decodeStepPayload(d)
					t.Steps = append(t.Steps, sp)
					return err
				})
			}
		default:
			err = d.Skip()
		}
		return err
	})
	if err == nil {
		err = d.End()
	}
	return err
}

func decodeStepPayload(d *fastjson.Dec) (stepPayload, error) {
	var sp stepPayload
	err := d.ObjEach(func(key []byte) (err error) {
		switch string(key) {
		case "family_id":
			sp.FamilyID, err = d.Str()
		case "group_id":
			sp.GroupID, err = d.Str()
		case "files":
			sp.Files, err = d.Strings()
		case "stage":
			sp.Stage, err = d.Str()
		case "fetch_from":
			sp.FetchFrom, err = d.Str()
		case "content_hash":
			sp.ContentHash, err = d.Str()
		default:
			err = d.Skip()
		}
		return err
	})
	return sp, err
}

// encodeTaskResult appends r's body to dst. Each step's metadata is
// already encoded and is spliced in as is.
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
		dst = append(append(dst, `,"metadata":`...), o.Metadata...)
	}
	dst = append(dst, `,"extract_ms":`...)
	dst, err := fastjson.AppendFloat(dst, o.ExtractMS)
	if err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// decodeTaskResult parses a task body into r. Each outcome's metadata
// aliases data: an object's bytes, or nil for null; any other value makes
// the whole result bad.
func decodeTaskResult(data []byte, r *taskResult) error {
	d := fastjson.NewDec(data)
	err := d.ObjEach(func(key []byte) (err error) {
		switch string(key) {
		case "extractor":
			r.Extractor, err = d.Str()
		case "outcomes":
			r.Outcomes = nil
			if !d.Null() {
				r.Outcomes = []stepOutcome{}
				err = d.ArrEach(func() error {
					o, err := decodeStepOutcome(d)
					r.Outcomes = append(r.Outcomes, o)
					return err
				})
			}
		default:
			err = d.Skip()
		}
		return err
	})
	if err == nil {
		err = d.End()
	}
	return err
}

func decodeStepOutcome(d *fastjson.Dec) (stepOutcome, error) {
	var o stepOutcome
	err := d.ObjEach(func(key []byte) (err error) {
		switch string(key) {
		case "family_id":
			o.FamilyID, err = d.Str()
		case "group_id":
			o.GroupID, err = d.Str()
		case "ok":
			o.OK, err = d.Bool()
		case "err":
			o.Err, err = d.Str()
		case "metadata":
			o.Metadata, err = d.RawObject()
		case "extract_ms":
			o.ExtractMS, err = d.Float()
		default:
			err = d.Skip()
		}
		return err
	})
	return o, err
}
