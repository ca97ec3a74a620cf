package transfer

import (
	"time"

	"xtract/internal/fastjson"
)

// The prefetch task and result are internal formats: the pump and the
// prefetcher of the same binary write them onto the staging queues and
// read them back. They are JSON in the field order of the structs' tags,
// but the decoders are strict -- exact lower-case keys, unknown keys
// skipped, a repeated key replaces the earlier value, null only where the
// encoder writes it -- and owe encoding/json nothing beyond reading back
// what AppendPrefetchTask and AppendPrefetchResult wrote.

// AppendPrefetchTask appends t's queue body to dst.
func AppendPrefetchTask(dst []byte, t *PrefetchTask) []byte {
	dst = append(dst, `{"job_id":`...)
	dst = fastjson.AppendString(dst, t.JobID)
	dst = append(dst, `,"family_id":`...)
	dst = fastjson.AppendString(dst, t.FamilyID)
	dst = append(dst, `,"src":`...)
	dst = fastjson.AppendString(dst, t.Src)
	dst = append(dst, `,"dst":`...)
	dst = fastjson.AppendString(dst, t.Dst)
	dst = append(dst, `,"pairs":`...)
	if t.Pairs == nil {
		return append(append(dst, "null"...), '}')
	}
	dst = append(dst, '[')
	for i := range t.Pairs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"src":`...)
		dst = fastjson.AppendString(dst, t.Pairs[i].Src)
		dst = append(dst, `,"dst":`...)
		dst = fastjson.AppendString(dst, t.Pairs[i].Dst)
		dst = append(dst, '}')
	}
	return append(append(dst, ']'), '}')
}

// DecodePrefetchTask parses a queue body into t.
func DecodePrefetchTask(data []byte, t *PrefetchTask) error {
	d := fastjson.NewDec(data)
	err := d.ObjEach(func(key []byte) (err error) {
		switch string(key) {
		case "job_id":
			t.JobID, err = d.Str()
		case "family_id":
			t.FamilyID, err = d.Str()
		case "src":
			t.Src, err = d.Str()
		case "dst":
			t.Dst, err = d.Str()
		case "pairs":
			t.Pairs = nil
			if !d.Null() {
				t.Pairs = []FilePair{}
				err = d.ArrEach(func() error {
					fp, err := decodeFilePair(d)
					t.Pairs = append(t.Pairs, fp)
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

func decodeFilePair(d *fastjson.Dec) (FilePair, error) {
	var fp FilePair
	err := d.ObjEach(func(key []byte) (err error) {
		switch string(key) {
		case "src":
			fp.Src, err = d.Str()
		case "dst":
			fp.Dst, err = d.Str()
		default:
			err = d.Skip()
		}
		return err
	})
	return fp, err
}

// AppendPrefetchResult appends r's queue body to dst.
func AppendPrefetchResult(dst []byte, r *PrefetchResult) []byte {
	dst = append(dst, `{"job_id":`...)
	dst = fastjson.AppendString(dst, r.JobID)
	dst = append(dst, `,"family_id":`...)
	dst = fastjson.AppendString(dst, r.FamilyID)
	if r.OK {
		dst = append(dst, `,"ok":true`...)
	} else {
		dst = append(dst, `,"ok":false`...)
	}
	if r.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = fastjson.AppendString(dst, r.Err)
	}
	dst = append(dst, `,"bytes":`...)
	dst = fastjson.AppendInt(dst, r.Bytes)
	dst = append(dst, `,"elapsed":`...)
	dst = fastjson.AppendInt(dst, int64(r.Elapsed))
	return append(dst, '}')
}

// DecodePrefetchResult parses a queue body into r.
func DecodePrefetchResult(data []byte, r *PrefetchResult) error {
	d := fastjson.NewDec(data)
	err := d.ObjEach(func(key []byte) (err error) {
		switch string(key) {
		case "job_id":
			r.JobID, err = d.Str()
		case "family_id":
			r.FamilyID, err = d.Str()
		case "ok":
			r.OK, err = d.Bool()
		case "err":
			r.Err, err = d.Str()
		case "bytes":
			r.Bytes, err = d.Int64()
		case "elapsed":
			var ns int64
			ns, err = d.Int64()
			r.Elapsed = time.Duration(ns)
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
