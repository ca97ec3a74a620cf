package fastjson

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
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

// Canonical is a value that appends its own canonical form: the bytes
// the decode-and-re-encode round trip would leave of it. The extractor
// library's records are Canonical, so a dictionary holding them is
// encoded in one pass, by AppendValue as by AppendCanonical.
type Canonical interface {
	AppendCanonical(dst []byte) ([]byte, error)
}

// AppendCanonical appends v in canonical form: the fixed point of the
// generic round trip -- encode, decode to generic values, encode those
// -- which is what a destination document carried when metadata was
// still decoded and re-encoded on its way there. Where v is plain (see
// plain), one encode already is that fixed point. Anything else takes
// the trip: typed values from outside the extractor library (written by
// encoding/json in struct-field order), integers beyond 2^53 in generic
// values, and invalid UTF-8 in generic strings and keys (written as the
// escape \ufffd, read back as the rune U+FFFD, which can also reorder
// and merge keys). It runs in the FaaS worker, in parallel and off the
// pump's path, once per step.
func AppendCanonical(dst []byte, v interface{}) ([]byte, error) {
	if plain(v) {
		out, err := AppendValue(dst, v)
		if err != nil {
			return dst, err // the trip's first encode fails the same way
		}
		return out, nil
	}
	trips.Add(1)
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

// trips counts the values AppendCanonical has sent through the round
// trip.
var trips atomic.Int64

// Trips reports how many values AppendCanonical has sent through the
// round trip since the process started: none, for the dictionaries the
// extractor library returns over text that is valid UTF-8.
func Trips() int64 { return trips.Load() }

// plain reports whether v holds only what a decode would give back as it
// is: generic objects and lists, valid UTF-8, scalars, integers a
// float64 holds exactly, the flat typed kinds AppendValue writes
// natively, whose decoded form encodes to the same bytes, and Canonical
// values.
func plain(v interface{}) bool {
	switch x := v.(type) {
	case nil, bool, float64, []float64, Canonical:
		return true
	case string:
		return utf8.ValidString(x)
	case int:
		return exact(x)
	case uint64:
		return x <= 1<<53
	case map[string]interface{}:
		return plainObject(x, plain)
	case map[string]string:
		return plainObject(x, utf8.ValidString)
	case map[string]float64:
		return plainObject(x, func(float64) bool { return true })
	case map[string]int:
		return plainObject(x, exact[int])
	case []interface{}:
		return all(x, plain)
	case []string:
		return all(x, utf8.ValidString)
	case []int:
		return all(x, exact[int])
	}
	return false
}

// plainObject reports whether every key of m is valid UTF-8 and every
// value ok.
func plainObject[V any](m map[string]V, ok func(V) bool) bool {
	for k, e := range m {
		if !utf8.ValidString(k) || !ok(e) {
			return false
		}
	}
	return true
}

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
	var buf [smallMap]string
	dst = append(dst, '{')
	for i, k := range sortedKeys(buf[:0], m) {
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

// RawStrings consumes an array of strings and returns it as
// AppendStrings writes it: the input's own bytes when they already are
// that and every string is plain (see plainString), else a fresh
// encoding of the decoded strings. null is the nil Raw; anything else is
// an error.
func (d *Dec) RawStrings() (Raw, error) {
	if d.Null() {
		return nil, nil
	}
	d.skipWS()
	start, want := d.pos, 2 // want: the array's length written canonically
	same, n := true, 0
	err := d.ArrEach(func() error {
		if n++; n > 1 {
			want++ // the comma
		}
		d.skipWS()
		at := d.pos
		if !d.plainString() {
			same = false
			if _, err := d.str(); err != nil {
				return err
			}
		}
		want += d.pos - at
		return nil
	})
	if err != nil {
		return nil, err
	}
	raw := d.data[start:d.pos]
	if same && len(raw) == want {
		return raw, nil
	}
	ss, err := NewDec(raw).Strings()
	return AppendStrings(nil, ss), err
}

// RawMap consumes an object whose every value is an object or null --
// the shape AppendRawMap writes -- and returns it as AppendRawMap writes
// it: the input's own bytes when they already are that (no whitespace
// between members, plain keys, strictly increasing; see plainString),
// else a fresh encoding with the keys sorted and a repeated key's last
// value kept. Values are spliced verbatim either way. null is the nil
// Raw; anything else is an error.
func (d *Dec) RawMap() (Raw, error) {
	if d.Null() {
		return nil, nil
	}
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	if c != '{' {
		return nil, d.errf("expected object, found %q", c)
	}
	if d.depth++; d.depth > maxDepth {
		return nil, d.errf("exceeded max nesting depth")
	}
	start, want := d.pos, 2 // want: the object's length written canonically
	d.pos++
	same := true
	var last []byte // the previous key
	if c, err = d.peek(); err != nil {
		return nil, err
	}
	for c != '}' {
		key, width, err := d.rawMember()
		if err != nil {
			return nil, err
		}
		same = same && key != nil && (last == nil || bytes.Compare(last, key) < 0)
		last, want = key, want+width
		if c, err = d.peek(); err != nil {
			return nil, err
		}
		switch c {
		case ',':
			d.pos++
			want++
			if c, err = d.peek(); err != nil {
				return nil, err
			}
			if c == '}' {
				return nil, d.errf("expected string, found %q", c)
			}
		case '}':
		default:
			return nil, d.errf("expected ',' or '}' in object, found %q", c)
		}
	}
	d.pos++
	d.depth--
	raw := d.data[start:d.pos]
	if same && len(raw) == want {
		return raw, nil
	}
	return canonicalRawMap(raw), nil
}

// rawMember reads one member of the object RawMap walks: the key, the
// colon and the value, which must be an object or null. The key comes
// back only when it is plain (see plainString), so that its bytes are
// the decoded key the order is judged on, and width is the member's
// length written canonically.
func (d *Dec) rawMember() (key []byte, width int, err error) {
	at := d.pos
	if d.plainString() {
		key = d.data[at+1 : d.pos-1]
	} else if _, err := d.str(); err != nil {
		return nil, 0, err
	}
	width = d.pos - at + 1 // the key and its colon
	c, err := d.peek()
	if err != nil {
		return nil, 0, err
	}
	if c != ':' {
		return nil, 0, d.errf("expected ':' after object key, found %q", c)
	}
	d.pos++
	if c, err = d.peek(); err != nil {
		return nil, 0, err
	}
	at = d.pos
	switch {
	case c == '{':
		err = d.Skip()
	case !d.lit("null"):
		err = d.errf("expected object or null")
	}
	return key, width + d.pos - at, err
}

// canonicalRawMap re-encodes an object RawMap has already checked.
func canonicalRawMap(raw Raw) Raw {
	m := make(map[string]Raw)
	d := NewDec(raw)
	_ = d.ObjEach(func(key []byte) error {
		v, err := d.RawObject()
		m[string(key)] = v
		return err
	})
	return AppendRawMap(nil, m)
}

// plainString consumes a string literal that AppendString would write
// unchanged -- valid UTF-8 with no escape and no byte AppendString
// escapes -- and reports whether there was one there; if not, it
// consumes nothing. A string that needs an escape is re-encoded by its
// caller, which writes the same bytes when they were canonical already.
func (d *Dec) plainString() bool {
	data := d.data
	if d.pos >= len(data) || data[d.pos] != '"' {
		return false
	}
	for i := d.pos + 1; i < len(data); {
		b := data[i]
		if b >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
				return false
			}
			i += size
			continue
		}
		switch {
		case safe[b]:
			i++
		case b == '"':
			d.pos = i + 1
			return true
		default:
			return false
		}
	}
	return false
}
