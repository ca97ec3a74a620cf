package validate

import (
	"time"

	"xtract/internal/fastjson"
)

// The validation record is an internal format: the pump writes it onto
// the result queue and the validation service of the same binary reads
// it back. It is JSON in the field order of Record's struct tags, but the
// decoder is strict -- exact lower-case keys, unknown keys skipped, a
// repeated key replaces the earlier value -- and owes encoding/json
// nothing beyond reading back what AppendRecord wrote. Each step's
// metadata crosses as the bytes the worker encoded: spliced in on the
// way out, sliced out of the body on the way in.

// AppendRecord appends rec's queue body to dst.
func AppendRecord(dst []byte, rec *Record) ([]byte, error) {
	dst = append(dst, `{"job_id":`...)
	dst = fastjson.AppendString(dst, rec.JobID)
	dst = append(dst, `,"family_id":`...)
	dst = fastjson.AppendString(dst, rec.FamilyID)
	dst = append(dst, `,"store":`...)
	dst = fastjson.AppendString(dst, rec.Store)
	dst = append(dst, `,"base_path":`...)
	dst = fastjson.AppendString(dst, rec.BasePath)
	dst = fastjson.AppendStrings(append(dst, `,"files":`...), rec.Files)
	dst = fastjson.AppendRawMap(append(dst, `,"metadata":`...), rec.Metadata)
	dst = append(dst, `,"extracted":`...)
	if rec.Extracted == nil {
		return append(append(dst, "null"...), '}'), nil
	}
	dst = append(dst, '[')
	for i := range rec.Extracted {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendStepResult(dst, &rec.Extracted[i])
	}
	return append(append(dst, ']'), '}'), nil
}

func appendStepResult(dst []byte, sr *StepResult) []byte {
	dst = append(dst, `{"group_id":`...)
	dst = fastjson.AppendString(dst, sr.GroupID)
	dst = append(dst, `,"extractor":`...)
	dst = fastjson.AppendString(dst, sr.Extractor)
	if sr.OK {
		dst = append(dst, `,"ok":true`...)
	} else {
		dst = append(dst, `,"ok":false`...)
	}
	if sr.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = fastjson.AppendString(dst, sr.Err)
	}
	dst = append(dst, `,"duration":`...)
	dst = fastjson.AppendInt(dst, int64(sr.Duration))
	if sr.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	return append(dst, '}')
}

// DecodeRecord parses a queue body into rec. Metadata values alias data.
func DecodeRecord(data []byte, rec *Record) error {
	d := fastjson.NewDec(data)
	err := d.ObjEach(func(key []byte) (err error) {
		switch string(key) {
		case "job_id":
			rec.JobID, err = d.Str()
		case "family_id":
			rec.FamilyID, err = d.Str()
		case "store":
			rec.Store, err = d.Str()
		case "base_path":
			rec.BasePath, err = d.Str()
		case "files":
			rec.Files, err = d.Strings()
		case "metadata":
			rec.Metadata = nil
			if !d.Null() {
				rec.Metadata = make(map[string]fastjson.Raw, 8)
				err = d.ObjEach(func(k []byte) error {
					name := string(k)
					md, err := d.RawObject()
					rec.Metadata[name] = md
					return err
				})
			}
		case "extracted":
			rec.Extracted = nil
			if !d.Null() {
				rec.Extracted = []StepResult{}
				err = d.ArrEach(func() error {
					sr, err := decodeStepResult(d)
					rec.Extracted = append(rec.Extracted, sr)
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

func decodeStepResult(d *fastjson.Dec) (StepResult, error) {
	var sr StepResult
	err := d.ObjEach(func(key []byte) (err error) {
		switch string(key) {
		case "group_id":
			sr.GroupID, err = d.Str()
		case "extractor":
			sr.Extractor, err = d.Str()
		case "ok":
			sr.OK, err = d.Bool()
		case "err":
			sr.Err, err = d.Str()
		case "duration":
			var ns int64
			ns, err = d.Int64()
			sr.Duration = time.Duration(ns)
		case "cached":
			sr.Cached, err = d.Bool()
		default:
			err = d.Skip()
		}
		return err
	})
	return sr, err
}
