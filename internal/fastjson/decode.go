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

func (d *Dec) errf(format string, args ...interface{}) error {
	return errAt(d.pos, format, args...)
}

// errAt reports a syntax error at offset pos.
func errAt(pos int, format string, args ...interface{}) error {
	return fmt.Errorf("fastjson: offset %d: "+format, append([]interface{}{pos}, args...)...)
}

func (d *Dec) skipWS() { d.pos = skipSpace(d.data, d.pos) }

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
				r := hex4(d.data, i+1)
				if r < 0 {
					d.pos = i - 1
					return nil, d.errf("invalid \\u escape")
				}
				i += 5
				if utf16.IsSurrogate(r) {
					var r2 rune = -1
					if i+1 < len(d.data) && d.data[i] == '\\' && d.data[i+1] == 'u' {
						r2 = hex4(d.data, i+2)
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
func hex4(data []byte, off int) rune {
	if off+4 > len(data) {
		return -1
	}
	var r rune
	for _, b := range data[off : off+4] {
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

// numberLiteral consumes a number matching JSON's strict grammar (see
// scanNumber) and returns its raw bytes.
func (d *Dec) numberLiteral() ([]byte, error) {
	if _, err := d.peek(); err != nil {
		return nil, err
	}
	start := d.pos
	end, err := scanNumber(d.data, start)
	if err != nil {
		return nil, err
	}
	d.pos = end
	return d.data[start:end], nil
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

// Skip consumes and discards any single value, holding it to the same
// grammar as the typed reads and the same nesting bound. It is one loop
// over the value's bytes, with no closures and no recursion: opens
// remembers, a bit per open container, which are objects (read back only
// when one closes), and strings are checked without being decoded.
func (d *Dec) Skip() error {
	data := d.data
	var opens openSet
	open, i := 0, d.pos
	object := false // the innermost open container is an object
	var err error
	for {
		// A value starts at i, after any whitespace.
		if i = skipSpace(data, i); i >= len(data) {
			return d.eof()
		}
		switch c := data[i]; c {
		case '{', '[':
			if d.depth+open >= maxDepth {
				d.pos = i
				return d.errf("exceeded max nesting depth")
			}
			if i = skipSpace(data, i+1); i >= len(data) {
				return d.eof()
			}
			if data[i] != c+2 { // not '}' or ']' at once: a member follows
				object = c == '{'
				opens.set(open, object)
				open++
				if object {
					i, err = scanKey(data, i)
				}
				if err != nil {
					return err
				}
				continue
			}
			i++
		case '"':
			i, err = scanString(data, i)
		case 't':
			i, err = scanLiteral(data, i, "true")
		case 'f':
			i, err = scanLiteral(data, i, "false")
		case 'n':
			i, err = scanLiteral(data, i, "null")
		default:
			i, err = scanNumber(data, i)
		}
		if err != nil {
			return err
		}
		// A value ended at i: close every container it ends, then step to
		// the next member of the innermost one still open.
		for open > 0 {
			if i = skipSpace(data, i); i >= len(data) {
				return d.eof()
			}
			if data[i] == ',' {
				if i++; object {
					i, err = scanKey(data, i)
				}
				break
			}
			if object && data[i] != '}' || !object && data[i] != ']' {
				return unclosed(data, i, object)
			}
			i++
			if open--; open > 0 {
				object = opens.isObject(open - 1)
			}
		}
		if err != nil {
			return err
		}
		if open == 0 {
			d.pos = i
			return nil
		}
	}
}

// unclosed reports the byte at i, where a member of an object or an
// array should have been followed by a comma or the closing bracket.
func unclosed(data []byte, i int, object bool) error {
	if object {
		return errAt(i, "expected ',' or '}' in object, found %q", data[i])
	}
	return errAt(i, "expected ',' or ']' in array, found %q", data[i])
}

// eof reports input that ended where more was due.
func (d *Dec) eof() error {
	d.pos = len(d.data)
	return d.errf("unexpected end of input")
}

// skipSpace returns the offset of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && data[i] <= ' ' && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// scanKey returns the offset just past the object key at i (after any
// whitespace) and the colon that follows it.
func scanKey(data []byte, i int) (int, error) {
	if i = skipSpace(data, i); i >= len(data) {
		return i, errAt(i, "unexpected end of input")
	}
	if data[i] != '"' {
		return i, errAt(i, "expected string, found %q", data[i])
	}
	i, err := scanString(data, i)
	if err != nil {
		return i, err
	}
	if i = skipSpace(data, i); i >= len(data) {
		return i, errAt(i, "unexpected end of input")
	}
	if data[i] != ':' {
		return i, errAt(i, "expected ':' after object key, found %q", data[i])
	}
	return i + 1, nil
}

// scanString returns the offset just past the string literal at i,
// checking its escapes and rejecting control characters as str does. It
// does not look at UTF-8: a decode repairs what is invalid rather than
// rejecting it.
func scanString(data []byte, i int) (int, error) {
	for i++; i < len(data); i++ {
		switch b := data[i]; {
		case literal[b]:
		case b == '"':
			return i + 1, nil
		case b == '\\':
			if i++; i >= len(data) {
				return i, errAt(i, "unterminated string escape")
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if hex4(data, i+1) < 0 {
					return i, errAt(i-1, "invalid \\u escape")
				}
				i += 4
			default:
				return i, errAt(i-1, "invalid escape character %q in string", data[i])
			}
		case b < 0x20:
			return i, errAt(i, "invalid control character %#x in string", b)
		}
	}
	return i, errAt(i, "unterminated string")
}

// literal marks the bytes a string literal holds as they are: all but
// '"', '\\' and the control characters.
var literal = func() (t [256]bool) {
	for b := 0x20; b < 256; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// scanLiteral returns the offset just past lit, which must be at i.
func scanLiteral(data []byte, i int, lit string) (int, error) {
	if len(data)-i >= len(lit) && string(data[i:i+len(lit)]) == lit {
		return i + len(lit), nil
	}
	return i, errAt(i, "invalid literal")
}

// scanNumber returns the offset just past the number at i, held to JSON's
// strict grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func scanNumber(data []byte, i int) (int, error) {
	n := len(data)
	if data[i] == '-' {
		i++
	}
	if i >= n {
		return i, errAt(i, "truncated number")
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
		return i, errAt(i, "invalid character %q looking for a value", data[i])
	}
	if i < n && data[i] == '.' {
		i++
		if i >= n || data[i] < '0' || data[i] > '9' {
			return i, errAt(i, "missing digits after decimal point")
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
			return i, errAt(i, "missing digits in exponent")
		}
		for i < n && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	}
	return i, nil
}

// openSet records, a bit per nesting level, whether the container open at
// that level is an object. The first 128 levels need no allocation.
type openSet struct {
	near [2]uint64
	far  []uint64
}

func (o *openSet) word(level int) *uint64 {
	i := level / 64
	if i < len(o.near) {
		return &o.near[i]
	}
	i -= len(o.near)
	for len(o.far) <= i {
		o.far = append(o.far, 0)
	}
	return &o.far[i]
}

func (o *openSet) set(level int, object bool) {
	w, bit := o.word(level), uint64(1)<<(level%64)
	if object {
		*w |= bit
	} else {
		*w &^= bit
	}
}

func (o *openSet) isObject(level int) bool {
	return *o.word(level)&(uint64(1)<<(level%64)) != 0
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
