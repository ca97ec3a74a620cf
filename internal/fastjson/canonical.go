package fastjson

import (
	"encoding/json"
	"unicode/utf8"
)

// Raw is one JSON value already encoded in canonical form: object keys
// sorted at every level, numbers in AppendFloat form, strings as
// AppendString writes valid UTF-8, no whitespace. A step's metadata is
// encoded to a Raw once, in the FaaS worker, and from there on is only
// sliced, stored and spliced into larger documents. A Raw is immutable
// once handed over: the cache, the journal's live state and a family's
// pending results may all hold the same backing array.
type Raw = json.RawMessage

// IsObject reports whether raw holds a JSON object. Decoders hand out a
// value's bytes from its first significant byte, so one look suffices.
func IsObject(raw Raw) bool { return len(raw) > 0 && raw[0] == '{' }

// AppendCanonical appends v in canonical form: the fixed point of the
// generic round trip, which is what a destination document carried when
// metadata was still decoded and re-encoded on its way there. One encode
// is not there yet where a decode loses information: typed values that
// go through encoding/json in struct-field order, integers beyond 2^53,
// invalid UTF-8 (written as the escape \ufffd, read back as the rune
// U+FFFD, which can also reorder and merge keys). So it takes the trip:
// encode, decode to generic values, encode those — unless v is plain,
// when the first encode already is the fixed point. It runs in the FaaS
// worker, in parallel and off the pump's path, once per step.
func AppendCanonical(dst []byte, v interface{}) ([]byte, error) {
	if plain(v) {
		if out, err := AppendValue(dst, v); err == nil {
			return out, nil
		}
	}
	blob, err := AppendValue(nil, v)
	if err != nil {
		return dst, err
	}
	g, err := DecodeValue(blob)
	if err != nil {
		return dst, err
	}
	return AppendValue(dst, g)
}

// plain reports whether v holds only what a decode would give back as it
// is: generic objects and lists, valid UTF-8, scalars, ints a float64
// holds exactly, and the flat typed kinds AppendValue writes natively,
// whose decoded form encodes to the same bytes.
func plain(v interface{}) bool {
	switch x := v.(type) {
	case nil, bool, float64, []float64:
		return true
	case string:
		return utf8.ValidString(x)
	case int:
		return exact(x)
	case map[string]interface{}:
		for k, e := range x {
			if !utf8.ValidString(k) || !plain(e) {
				return false
			}
		}
		return true
	case map[string]string:
		for k, s := range x {
			if !utf8.ValidString(k) || !utf8.ValidString(s) {
				return false
			}
		}
		return true
	case []interface{}:
		return all(x, plain)
	case []string:
		return all(x, utf8.ValidString)
	case []int:
		return all(x, exact)
	}
	return false
}

// exact reports whether a float64 holds i exactly.
func exact(i int) bool { return int64(i) >= -1<<53 && int64(i) <= 1<<53 }

func all[T any](xs []T, ok func(T) bool) bool {
	for _, x := range xs {
		if !ok(x) {
			return false
		}
	}
	return true
}

// AppendRawMap appends m as an object with sorted keys, splicing each
// value's bytes in verbatim: null for a nil map, and for an empty value
// (a step that produced no metadata).
func AppendRawMap(dst []byte, m map[string]Raw) []byte {
	if m == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '{')
	for i, k := range sortedKeys(m) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(AppendString(dst, k), ':')
		if v := m[k]; len(v) > 0 {
			dst = append(dst, v...)
		} else {
			dst = append(dst, "null"...)
		}
	}
	return append(dst, '}')
}
