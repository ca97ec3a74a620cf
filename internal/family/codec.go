package family

import (
	"errors"
	"sort"

	"xtract/internal/fastjson"
)

// The crawl-queue body is an internal format: the crawler writes it and
// the pump of the same binary reads it, and it is never journaled. It is
// JSON in the field order and with the omitempty rules of family.go's
// struct tags, but the decoder is strict — exact lower-case keys,
// unknown keys skipped, a repeated key replaces the earlier value — and
// owes encoding/json nothing beyond reading back what AppendFamily wrote.

// AppendFamily appends f's queue body to dst. It fails only on metadata
// JSON cannot carry (NaN, Inf, an unencodable type).
func AppendFamily(dst []byte, f *Family) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = fastjson.AppendString(dst, f.ID)
	dst = append(dst, `,"files":`...)
	dst = fastjson.AppendStrings(dst, f.Files)
	dst = append(dst, `,"groups":`...)
	if f.Groups == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range f.Groups {
			g := &f.Groups[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"id":`...)
			dst = fastjson.AppendString(dst, g.ID)
			dst = append(dst, `,"files":`...)
			dst = fastjson.AppendStrings(dst, g.Files)
			dst = append(dst, `,"extractor":`...)
			dst = fastjson.AppendString(dst, g.Extractor)
			var err error
			if dst, err = appendMetadata(dst, g.Metadata); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = appendOptString(dst, `,"store":`, f.Store)
	dst = appendOptString(dst, `,"base_path":`, f.BasePath)
	if len(f.FileMeta) > 0 {
		paths := make([]string, 0, len(f.FileMeta))
		for p := range f.FileMeta {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		dst = append(dst, `,"file_meta":{`...)
		for i, p := range paths {
			if i > 0 {
				dst = append(dst, ',')
			}
			m := f.FileMeta[p]
			dst = fastjson.AppendString(dst, p)
			dst = append(dst, `:{"size":`...)
			dst = fastjson.AppendInt(dst, m.Size)
			dst = appendOptString(dst, `,"extension":`, m.Extension)
			dst = appendOptString(dst, `,"mime_type":`, m.MimeType)
			dst = appendOptString(dst, `,"content_hash":`, m.ContentHash)
			dst = append(dst, '}')
		}
		dst = append(dst, '}')
	}
	dst, err := appendMetadata(dst, f.Metadata)
	return append(dst, '}'), err
}

func appendOptString(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return fastjson.AppendString(append(dst, key...), s)
}

func appendMetadata(dst []byte, m map[string]interface{}) ([]byte, error) {
	if len(m) == 0 {
		return dst, nil
	}
	return fastjson.AppendValue(append(dst, `,"metadata":`...), m)
}

// DecodeFamily parses a queue body written by AppendFamily.
func DecodeFamily(data []byte) (Family, error) {
	var f Family
	d := fastjson.NewDec(data)
	err := d.ObjEach(func(key []byte) (err error) {
		switch string(key) {
		case "id":
			f.ID, err = d.Str()
		case "files":
			f.Files, err = d.Strings()
		case "groups":
			f.Groups = nil
			if !d.Null() {
				f.Groups = []Group{}
				err = d.ArrEach(func() error {
					g, err := decodeGroup(d)
					f.Groups = append(f.Groups, g)
					return err
				})
			}
		case "store":
			f.Store, err = d.Str()
		case "base_path":
			f.BasePath, err = d.Str()
		case "file_meta":
			f.FileMeta = nil
			if !d.Null() {
				f.FileMeta = make(map[string]FileMeta)
				err = d.ObjEach(func(key []byte) error {
					path := string(key)
					m, err := decodeFileMeta(d)
					f.FileMeta[path] = m
					return err
				})
			}
		case "metadata":
			f.Metadata, err = decodeMetadata(d)
		default:
			err = d.Skip()
		}
		return err
	})
	if err == nil {
		err = d.End()
	}
	return f, err
}

func decodeGroup(d *fastjson.Dec) (Group, error) {
	var g Group
	err := d.ObjEach(func(key []byte) (err error) {
		switch string(key) {
		case "id":
			g.ID, err = d.Str()
		case "files":
			g.Files, err = d.Strings()
		case "extractor":
			g.Extractor, err = d.Str()
		case "metadata":
			g.Metadata, err = decodeMetadata(d)
		default:
			err = d.Skip()
		}
		return err
	})
	return g, err
}

func decodeFileMeta(d *fastjson.Dec) (FileMeta, error) {
	var m FileMeta
	err := d.ObjEach(func(key []byte) (err error) {
		switch string(key) {
		case "size":
			m.Size, err = d.Int64()
		case "extension":
			m.Extension, err = d.Str()
		case "mime_type":
			m.MimeType, err = d.Str()
		case "content_hash":
			m.ContentHash, err = d.Str()
		default:
			err = d.Skip()
		}
		return err
	})
	return m, err
}

// decodeMetadata reads a generic object; null is the nil map.
func decodeMetadata(d *fastjson.Dec) (map[string]interface{}, error) {
	v, err := d.Value()
	if v == nil || err != nil {
		return nil, err
	}
	m, ok := v.(map[string]interface{})
	if !ok {
		return nil, errors.New("family: metadata is not an object")
	}
	return m, nil
}
