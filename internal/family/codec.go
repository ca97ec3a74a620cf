package family

import (
	"xtract/internal/fastjson"
)

// The family body is the format of the crawler's queue sink
// (crawler.New): what a family looks like when the crawler runs in
// another process than the service. Inside one process families cross as
// values and nothing encodes them. The body is JSON in the field order
// and with the omitempty rules of family.go's struct tags, so the reader
// on the other side is json.Unmarshal into a Family.

// AppendFamily appends f's queue body to dst. Every field is a string, a
// number or a list of them, so nothing can fail.
func AppendFamily(dst []byte, f *Family) []byte {
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
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = appendOptString(dst, `,"store":`, f.Store)
	dst = appendOptString(dst, `,"base_path":`, f.BasePath)
	if len(f.FileMeta) > 0 {
		dst = append(dst, `,"file_meta":[`...)
		for i := range f.FileMeta {
			m := &f.FileMeta[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"path":`...)
			dst = fastjson.AppendString(dst, m.Path)
			dst = append(dst, `,"size":`...)
			dst = fastjson.AppendInt(dst, m.Size)
			dst = appendOptString(dst, `,"extension":`, m.Extension)
			dst = appendOptString(dst, `,"mime_type":`, m.MimeType)
			dst = appendOptString(dst, `,"content_hash":`, m.ContentHash)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendOptString(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return fastjson.AppendString(append(dst, key...), s)
}
