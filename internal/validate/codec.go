package validate

import (
	"xtract/internal/fastjson"
)

// The validation record's queue body. The live system hands records to
// the validation service as values (Service.Submit) and encodes none of
// them: this codec is kept only for the benchmark harness's layer replay,
// which captures records as bodies and decodes them again. The body is
// JSON in the field order of Record's struct tags, but the decoder is
// strict -- exact lower-case keys, unknown keys skipped, a repeated key
// replaces the earlier value -- and owes encoding/json nothing beyond
// reading back what AppendRecord wrote. The file list and the metadata
// cross as encoded bytes: spliced in on the way out, sliced out of the
// body on the way in.

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
	dst = appendRaw(append(dst, `,"files":`...), rec.Files)
	dst = appendRaw(append(dst, `,"metadata":`...), rec.Metadata)
	return append(dst, '}'), nil
}

// appendRaw splices an encoded value in, null for an empty one.
func appendRaw(dst []byte, raw fastjson.Raw) []byte {
	if len(raw) == 0 {
		return append(dst, "null"...)
	}
	return append(dst, raw...)
}

// DecodeRecord parses a queue body into rec in one pass; it allocates
// only the four ID strings. Files and Metadata alias data when the body
// already holds them in canonical form, which is how AppendRecord writes
// them; otherwise they are re-encoded into it (see fastjson's RawStrings
// and RawMap), so a validator can splice them as they are.
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
			rec.Files, err = d.RawStrings()
		case "metadata":
			rec.Metadata, err = d.RawMap()
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
