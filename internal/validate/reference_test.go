package validate

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"xtract/internal/fastjson"
)

// The record decoder and the two validators in decode-and-rebuild form:
// the file list and the metadata are decoded into a []string and a map,
// and documents are rebuilt from those. They are the references
// FuzzValidateMatchesReference holds the spliced path to. A record has
// no "extracted" member, so the reference skips one like any unknown
// key.

type refRecord struct {
	JobID, FamilyID, Store, BasePath string
	Files                            []string
	Metadata                         map[string]fastjson.Raw
}

func refDecodeRecord(data []byte, rec *refRecord) error {
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

func refMetadataLen(md map[string]fastjson.Raw) int {
	n := 0
	for k, v := range md {
		n += len(k) + len(v) + 8
	}
	return n
}

func refPassthrough(rec refRecord) ([]byte, error) {
	if rec.FamilyID == "" {
		return nil, fmt.Errorf("%w: missing family_id", ErrInvalid)
	}
	dst := make([]byte, 0, 256+refMetadataLen(rec.Metadata))
	dst = append(dst, `{"family":`...)
	dst = fastjson.AppendString(dst, rec.FamilyID)
	dst = fastjson.AppendStrings(append(dst, `,"files":`...), rec.Files)
	dst = fastjson.AppendRawMap(append(dst, `,"metadata":`...), rec.Metadata)
	dst = append(dst, `,"path":`...)
	dst = fastjson.AppendString(dst, rec.BasePath)
	dst = append(dst, `,"schema":"passthrough/v1","store":`...)
	dst = fastjson.AppendString(dst, rec.Store)
	return append(dst, '}'), nil
}

func refClassify(m *MDF, rec refRecord) (MDFSchema, error) {
	best := len(m.Schemas)
	for i, schema := range m.Schemas {
		if len(schema.AnyOfBlocks) == 0 {
			best = i
			break
		}
	}
	for _, md := range rec.Metadata {
		if !fastjson.IsObject(md) {
			continue
		}
		d := fastjson.NewDec(md)
		err := d.ObjEach(func(key []byte) error {
			best = m.firstNaming(key, best)
			return d.Skip()
		})
		if err != nil {
			return MDFSchema{}, fmt.Errorf("%w: metadata: %v", ErrInvalid, err)
		}
	}
	if best == len(m.Schemas) {
		return MDFSchema{}, fmt.Errorf("%w: no MDF schema matches", ErrInvalid)
	}
	return m.Schemas[best], nil
}

func refMDF(m *MDF, rec refRecord) ([]byte, error) {
	if rec.FamilyID == "" {
		return nil, fmt.Errorf("%w: missing family_id", ErrInvalid)
	}
	if len(rec.Metadata) == 0 {
		return nil, fmt.Errorf("%w: no extracted metadata", ErrInvalid)
	}
	schema, err := refClassify(m, rec)
	if err != nil {
		return nil, err
	}
	extractorsRan := make(map[string]bool)
	for key := range rec.Metadata {
		if i := strings.LastIndex(key, "/"); i >= 0 {
			extractorsRan[key[i+1:]] = true
		}
	}
	ranList := make([]string, 0, len(extractorsRan))
	for e := range extractorsRan {
		ranList = append(ranList, e)
	}
	sort.Strings(ranList)
	dst := make([]byte, 0, 384+refMetadataLen(rec.Metadata))
	dst = fastjson.AppendStrings(append(dst, `{"extractors":`...), ranList)
	dst = fastjson.AppendStrings(append(dst, `,"files":`...), rec.Files)
	dst = append(dst, `,"mdf":{"resource_type":"record","schema":`...)
	dst = fastjson.AppendString(dst, schema.Name)
	dst = append(dst, `,"scroll_id":`...)
	dst = fastjson.AppendString(dst, rec.FamilyID)
	dst = append(dst, `,"source_name":`...)
	dst = fastjson.AppendString(dst, m.SourceName)
	dst = fastjson.AppendRawMap(append(dst, `},"metadata":`...), rec.Metadata)
	dst = append(dst, `,"origin":{"path":`...)
	dst = fastjson.AppendString(dst, rec.BasePath)
	dst = append(dst, `,"store":`...)
	dst = fastjson.AppendString(dst, rec.Store)
	return append(dst, `}}`...), nil
}

// FuzzValidateMatchesReference holds the one-pass decoder and the
// splicing validators to the decode-and-rebuild path they replaced: for
// any body, the record is accepted exactly when the reference accepts
// it, and each validator accepts it exactly when its reference does,
// with a byte-identical document.
func FuzzValidateMatchesReference(f *testing.F) {
	for _, rec := range recordCases() {
		body, _ := AppendRecord(nil, &rec)
		f.Add(body)
	}
	for _, body := range []string{
		`{"family_id":"f","metadata":{"g/b":{"keywords":1},"g/a":null,"g/b":{"rdf":[]}},"files":[ "a\u003c" , "\ud800"]}`,
		`{"family_id":"f","metadata":{ "x/\u00e9<" : {"entries":{}} , "y/a":{} },"extracted":5}`,
		`{"family_id":"\u2028","metadata":{"a":{},"a/":{"structure":1}},"files":["\u001f\u0008","/"]}`,
		`{"family_id":"f","metadata":{"g/k":{"k":"\ufffd\u0026"}},"files":["\/","\u00"]}`,
	} {
		f.Add([]byte(body))
	}
	validators := []struct {
		v   Validator
		ref func(refRecord) ([]byte, error)
	}{
		{Passthrough{}, refPassthrough},
		{NewMDF("src"), func(r refRecord) ([]byte, error) { return refMDF(NewMDF("src"), r) }},
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var rec Record
		var ref refRecord
		err, refErr := DecodeRecord(body, &rec), refDecodeRecord(body, &ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: decode err = %v, reference %v", body, err, refErr)
		}
		if err != nil {
			return
		}
		for _, c := range validators {
			doc, err := c.v.Validate(rec)
			want, refErr := c.ref(ref)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s on %q: err = %v, reference %v", c.v.Name(), body, err, refErr)
			}
			if !bytes.Equal(doc, want) {
				t.Fatalf("%s on %q:\n got: %s\nwant: %s", c.v.Name(), body, doc, want)
			}
		}
	})
}
