package fastjson

import (
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth mirrors encoding/json's nesting bound so deeply nested inputs
// fail instead of exhausting the stack.
const maxDepth = 10000

// Dec is a strict pull decoder over one JSON document. It accepts exactly
// the grammar encoding/json accepts -- strict number syntax, no trailing
// commas, control characters rejected inside strings, invalid UTF-8 and
// unpaired surrogates repaired to U+FFFD -- so hand-rolled struct decoders
// built on it keep encoding/json's accept/reject behavior. Callers pull
// values in document order: ObjEach/ArrEach walk containers, the typed
// reads consume scalars, Skip discards a value, and End asserts the
// document has no trailing data.
//
// A Dec retains a scratch buffer across Reset, so a pooled Dec decodes
// escaped strings without per-call allocation.
type Dec struct {
	data    []byte
	pos     int
	depth   int
	scratch []byte
}

// NewDec returns a decoder positioned at the start of data.
func NewDec(data []byte) *Dec { return &Dec{data: data} }

// Reset repoints the decoder at a new document, keeping the scratch
// buffer.
func (d *Dec) Reset(data []byte) {
	d.data, d.pos, d.depth = data, 0, 0
}

func (d *Dec) errf(format string, args ...interface{}) error {
	return fmt.Errorf("fastjson: offset %d: "+format, append([]interface{}{d.pos}, args...)...)
}

func (d *Dec) skipWS() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte without consuming it.
func (d *Dec) peek() (byte, error) {
	d.skipWS()
	if d.pos >= len(d.data) {
		return 0, d.errf("unexpected end of input")
	}
	return d.data[d.pos], nil
}

// lit consumes s if the input starts with it at the current position.
func (d *Dec) lit(s string) bool {
	if len(d.data)-d.pos >= len(s) && string(d.data[d.pos:d.pos+len(s)]) == s {
		d.pos += len(s)
		return true
	}
	return false
}

// ObjEach parses a JSON object, invoking fn once per member with the
// decoded key. fn must consume the member's value with exactly one
// decoder call (a typed read, a container walk, or Skip). The key slice
// is valid only until the next call on the decoder.
func (d *Dec) ObjEach(fn func(key []byte) error) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c != '{' {
		return d.errf("expected object, found %q", c)
	}
	if d.depth++; d.depth > maxDepth {
		return d.errf("exceeded max nesting depth")
	}
	d.pos++
	if c, err = d.peek(); err != nil {
		return err
	}
	if c == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		key, err := d.str()
		if err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		if c != ':' {
			return d.errf("expected ':' after object key, found %q", c)
		}
		d.pos++
		if err := fn(key); err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.pos++
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return d.errf("expected ',' or '}' in object, found %q", c)
		}
	}
}

// ArrEach parses a JSON array, invoking fn once per element; fn must
// consume the element.
func (d *Dec) ArrEach(fn func() error) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c != '[' {
		return d.errf("expected array, found %q", c)
	}
	if d.depth++; d.depth > maxDepth {
		return d.errf("exceeded max nesting depth")
	}
	d.pos++
	if c, err = d.peek(); err != nil {
		return err
	}
	if c == ']' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if err := fn(); err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.pos++
		case ']':
			d.pos++
			d.depth--
			return nil
		default:
			return d.errf("expected ',' or ']' in array, found %q", c)
		}
	}
}

// Str consumes a string value.
func (d *Dec) Str() (string, error) {
	raw, err := d.str()
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// str consumes a string literal and returns its decoded bytes. The fast
// path (no escapes, valid UTF-8) returns a subslice of the input; the
// slow path decodes into the retained scratch buffer, so the result is
// valid only until the next decoder call.
func (d *Dec) str() ([]byte, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	if c != '"' {
		return nil, d.errf("expected string, found %q", c)
	}
	d.pos++
	start := d.pos
	for i := start; i < len(d.data); i++ {
		switch b := d.data[i]; {
		case b == '"':
			s := d.data[start:i]
			if !utf8.Valid(s) {
				return d.strSlow(start)
			}
			d.pos = i + 1
			return s, nil
		case b == '\\':
			return d.strSlow(start)
		case b < 0x20:
			d.pos = i
			return nil, d.errf("invalid control character %#x in string", b)
		}
	}
	d.pos = len(d.data)
	return nil, d.errf("unterminated string")
}

// strSlow decodes a string containing escapes or invalid UTF-8, applying
// the same transformations encoding/json does: standard escapes, \uXXXX
// with UTF-16 surrogate pairing, U+FFFD for unpaired surrogates and
// invalid UTF-8 bytes.
func (d *Dec) strSlow(start int) ([]byte, error) {
	buf := d.scratch[:0]
	i := start
	for i < len(d.data) {
		switch b := d.data[i]; {
		case b == '"':
			d.pos = i + 1
			d.scratch = buf
			return buf, nil
		case b == '\\':
			i++
			if i >= len(d.data) {
				d.pos = i
				return nil, d.errf("unterminated string escape")
			}
			switch e := d.data[i]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
				i++
			case 'b':
				buf = append(buf, '\b')
				i++
			case 'f':
				buf = append(buf, '\f')
				i++
			case 'n':
				buf = append(buf, '\n')
				i++
			case 'r':
				buf = append(buf, '\r')
				i++
			case 't':
				buf = append(buf, '\t')
				i++
			case 'u':
				r := d.hex4(i + 1)
				if r < 0 {
					d.pos = i - 1
					return nil, d.errf("invalid \\u escape")
				}
				i += 5
				if utf16.IsSurrogate(r) {
					var r2 rune = -1
					if i+1 < len(d.data) && d.data[i] == '\\' && d.data[i+1] == 'u' {
						r2 = d.hex4(i + 2)
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						i += 6
						buf = utf8.AppendRune(buf, dec)
						continue
					}
					r = utf8.RuneError
				}
				buf = utf8.AppendRune(buf, r)
			default:
				d.pos = i - 1
				return nil, d.errf("invalid escape character %q in string", e)
			}
		case b < 0x20:
			d.pos = i
			return nil, d.errf("invalid control character %#x in string", b)
		case b < utf8.RuneSelf:
			buf = append(buf, b)
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				buf = utf8.AppendRune(buf, utf8.RuneError)
				i++
			} else {
				buf = append(buf, d.data[i:i+size]...)
				i += size
			}
		}
	}
	d.pos = len(d.data)
	return nil, d.errf("unterminated string")
}

// hex4 parses the four hex digits of a \uXXXX escape starting at off,
// returning -1 if they are missing or malformed.
func (d *Dec) hex4(off int) rune {
	if off+4 > len(d.data) {
		return -1
	}
	var r rune
	for _, b := range d.data[off : off+4] {
		switch {
		case b >= '0' && b <= '9':
			r = r<<4 | rune(b-'0')
		case b >= 'a' && b <= 'f':
			r = r<<4 | rune(b-'a'+10)
		case b >= 'A' && b <= 'F':
			r = r<<4 | rune(b-'A'+10)
		default:
			return -1
		}
	}
	return r
}

// Bool consumes a boolean value.
func (d *Dec) Bool() (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case 't':
		if d.lit("true") {
			return true, nil
		}
	case 'f':
		if d.lit("false") {
			return false, nil
		}
	}
	return false, d.errf("expected boolean")
}

// Null consumes a null literal if one is next, reporting whether it did.
func (d *Dec) Null() bool {
	if c, err := d.peek(); err != nil || c != 'n' {
		return false
	}
	return d.lit("null")
}

// numberLiteral consumes a number matching JSON's strict grammar
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) and returns its raw
// bytes.
func (d *Dec) numberLiteral() ([]byte, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	data, n := d.data, len(d.data)
	start := d.pos
	i := start
	if c == '-' {
		i++
	}
	if i >= n {
		return nil, d.errf("truncated number")
	}
	switch {
	case data[i] == '0':
		i++
	case data[i] >= '1' && data[i] <= '9':
		i++
		for i < n && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	default:
		return nil, d.errf("invalid character %q looking for a value", data[i])
	}
	if i < n && data[i] == '.' {
		i++
		if i >= n || data[i] < '0' || data[i] > '9' {
			d.pos = i
			return nil, d.errf("missing digits after decimal point")
		}
		for i < n && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	}
	if i < n && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < n && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= n || data[i] < '0' || data[i] > '9' {
			d.pos = i
			return nil, d.errf("missing digits in exponent")
		}
		for i < n && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	}
	d.pos = i
	return data[start:i], nil
}

// Float consumes a number as float64. Short non-negative integer
// literals take an allocation-free path; everything else goes through
// strconv.ParseFloat on the same literal encoding/json would hand it, so
// range errors surface identically.
func (d *Dec) Float() (float64, error) {
	lit, err := d.numberLiteral()
	if err != nil {
		return 0, err
	}
	if len(lit) < 16 && lit[0] != '-' {
		v := int64(0)
		isInt := true
		for _, b := range lit {
			if b < '0' || b > '9' {
				isInt = false
				break
			}
			v = v*10 + int64(b-'0')
		}
		if isInt {
			return float64(v), nil
		}
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, d.errf("cannot decode number %q as float64", lit)
	}
	return f, nil
}

// Int64 consumes a number as int64, rejecting fractional or exponent
// forms as encoding/json does for integer fields.
func (d *Dec) Int64() (int64, error) {
	lit, err := d.numberLiteral()
	if err != nil {
		return 0, err
	}
	digits := lit
	neg := false
	if digits[0] == '-' {
		neg = true
		digits = digits[1:]
	}
	if len(digits) >= 1 && len(digits) <= 18 {
		v := int64(0)
		isInt := true
		for _, b := range digits {
			if b < '0' || b > '9' {
				isInt = false
				break
			}
			v = v*10 + int64(b-'0')
		}
		if isInt {
			if neg {
				return -v, nil
			}
			return v, nil
		}
	}
	v, perr := strconv.ParseInt(string(lit), 10, 64)
	if perr != nil {
		return 0, d.errf("cannot decode number %q as int64", lit)
	}
	return v, nil
}

// Skip consumes and discards any single value.
func (d *Dec) Skip() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		return d.ObjEach(func([]byte) error { return d.Skip() })
	case '[':
		return d.ArrEach(func() error { return d.Skip() })
	case '"':
		_, err := d.str()
		return err
	case 't', 'f':
		_, err := d.Bool()
		return err
	case 'n':
		if d.Null() {
			return nil
		}
		return d.errf("invalid literal")
	default:
		_, err := d.numberLiteral()
		return err
	}
}

// Raw consumes any single value and returns its exact input bytes,
// aliasing the decoder's data.
func (d *Dec) Raw() ([]byte, error) {
	d.skipWS()
	start := d.pos
	if err := d.Skip(); err != nil {
		return nil, err
	}
	return d.data[start:d.pos], nil
}

// RawObject consumes an object and returns its exact input bytes,
// aliasing the decoder's data; null is the nil Raw, anything else an
// error. It is how an already-encoded metadata dictionary travels.
func (d *Dec) RawObject() (Raw, error) {
	if d.Null() {
		return nil, nil
	}
	raw, err := d.Raw()
	if err == nil && !IsObject(raw) {
		return nil, d.errf("expected object or null")
	}
	return raw, err
}

// Strings consumes an array of strings; null is the nil slice.
func (d *Dec) Strings() ([]string, error) {
	if d.Null() {
		return nil, nil
	}
	out := []string{}
	err := d.ArrEach(func() error {
		s, err := d.Str()
		out = append(out, s)
		return err
	})
	return out, err
}

// Value consumes any single value as the generic Go shape
// encoding/json.Unmarshal produces into interface{}: float64 numbers,
// map[string]interface{} objects (duplicate keys last-wins), and
// []interface{} arrays.
func (d *Dec) Value() (interface{}, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	switch c {
	case '{':
		m := map[string]interface{}{}
		err := d.ObjEach(func(key []byte) error {
			k := string(key)
			v, err := d.Value()
			if err != nil {
				return err
			}
			m[k] = v
			return nil
		})
		if err != nil {
			return nil, err
		}
		return m, nil
	case '[':
		arr := []interface{}{}
		err := d.ArrEach(func() error {
			v, err := d.Value()
			if err != nil {
				return err
			}
			arr = append(arr, v)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return arr, nil
	case '"':
		return d.Str()
	case 't', 'f':
		return d.Bool()
	case 'n':
		if d.Null() {
			return nil, nil
		}
		return nil, d.errf("invalid literal")
	default:
		return d.Float()
	}
}

// End asserts the document is fully consumed apart from trailing
// whitespace, matching encoding/json's rejection of trailing data.
func (d *Dec) End() error {
	d.skipWS()
	if d.pos < len(d.data) {
		return d.errf("unexpected data after top-level value")
	}
	return nil
}

// DecodeValue parses one complete document into the generic Go shape,
// equivalent to encoding/json.Unmarshal into *interface{}.
func DecodeValue(data []byte) (interface{}, error) {
	d := Dec{data: data}
	v, err := d.Value()
	if err != nil {
		return nil, err
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return v, nil
}
