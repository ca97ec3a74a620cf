// Package fastjson is the hot-path JSON codec: append-style encoders and
// a pull decoder that replace reflection-driven encoding/json on the
// per-task critical path (dispatch payloads, FaaS handler bodies,
// validation records, journal metadata). Every encoder is byte-identical
// to encoding/json.Marshal for the inputs the pipeline produces -- same
// HTML escaping, same float format, same sorted map keys -- and a fuzz +
// table suite pins the equivalence. What differs is canonical form, what
// a decode and re-encode would write: AppendCanonical and its writers
// (AppendCanonicalString, AppendCanonicalInt), and a Canonical value,
// which AppendValue writes in that form and not as Marshal would. The
// decoder accepts exactly the JSON grammar encoding/json accepts (strict
// numbers, UTF-8 repair, surrogate pairs, a nesting-depth bound) and
// produces the same generic values (float64 numbers,
// map[string]interface{} objects).
//
// Encoders append into caller-owned buffers, so the pipeline can reuse
// pooled scratch across tasks: the alloc-free discipline the perf gate's
// allocs_per_step bound enforces.
package fastjson

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// safe marks the ASCII bytes AppendString copies as they are: printable,
// and none of '"', '\\' and the HTML specials '<', '>', '&'.
var safe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// AppendString appends s as a JSON string literal, byte-identical to
// encoding/json.Marshal(s): the default HTML-safe escaping ('<', '>',
// '&' as <, >, &), two-character escapes for backslash,
// quote, \b, \f, \n, \r, \t, \u00xx for remaining control bytes, the literal
// six-byte escape \ufffd for invalid UTF-8, and U+2028/U+2029 escaped
// for JS embedding.
func AppendString(dst []byte, s string) []byte { return appendString(dst, s, false) }

// AppendCanonicalString appends s as the decode-and-re-encode round trip
// leaves it: as AppendString writes it, except that each invalid UTF-8
// byte becomes the rune U+FFFD itself, not its escape.
func AppendCanonicalString(dst []byte, s string) []byte { return appendString(dst, s, true) }

func appendString(dst []byte, s string, repair bool) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Control bytes plus the HTML specials <, >, &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			if repair {
				dst = utf8.AppendRune(dst, utf8.RuneError)
			} else {
				dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			}
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f in encoding/json's float64 format: %f for
// magnitudes in [1e-6, 1e21), exponent form otherwise, with the e-0X
// exponent abbreviated to e-X. NaN and infinities are unsupported, as in
// encoding/json.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("fastjson: unsupported float value %g", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendInt appends i in decimal.
func AppendInt(dst []byte, i int64) []byte { return strconv.AppendInt(dst, i, 10) }

// AppendCanonicalInt appends i as the round trip leaves it, as the
// float64 a decode reads it into: in decimal within ±2^53, where a
// float64 holds every integer, and rounded to the nearest float64
// beyond.
func AppendCanonicalInt(dst []byte, i int64) []byte {
	if exact(i) {
		return AppendInt(dst, i)
	}
	dst, _ = AppendFloat(dst, float64(i)) // finite: never an error
	return dst
}

// exact reports whether a float64 holds i exactly.
func exact[T int | int64](i T) bool { return int64(i) >= -1<<53 && int64(i) <= 1<<53 }

// AppendValue appends v's JSON encoding, byte-identical to
// encoding/json.Marshal(v) for every kind but one: a Canonical value
// appends its own canonical form, whatever Marshal would write for it.
// The dynamic kinds the extraction pipeline produces (decoded JSON
// values, extractor metadata) are encoded without reflection; anything
// else falls back to encoding/json, which keeps the byte equivalence by
// construction. Map keys are sorted, as encoding/json does.
func AppendValue(dst []byte, v interface{}) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case bool:
		if x {
			return append(dst, "true"...), nil
		}
		return append(dst, "false"...), nil
	case string:
		return AppendString(dst, x), nil
	case float64:
		return AppendFloat(dst, x)
	case int:
		return AppendInt(dst, int64(x)), nil
	case int64:
		return AppendInt(dst, x), nil
	case int32:
		return AppendInt(dst, int64(x)), nil
	case uint64:
		return strconv.AppendUint(dst, x, 10), nil
	case uint:
		return strconv.AppendUint(dst, uint64(x), 10), nil
	case map[string]interface{}:
		return appendObject(dst, x, AppendValue)
	case []interface{}:
		return AppendList(dst, x, AppendValue)
	case []int:
		return AppendList(dst, x, appendInt)
	case []float64:
		return AppendList(dst, x, AppendFloat)
	case map[string]string:
		return appendObject(dst, x, appendStringValue)
	case map[string]float64:
		return appendObject(dst, x, AppendFloat)
	case map[string]int:
		return appendObject(dst, x, appendInt)
	case []string:
		return AppendStrings(dst, x), nil
	case Canonical:
		if p := reflect.ValueOf(x); p.Kind() == reflect.Pointer && p.IsNil() {
			return append(dst, "null"...), nil // what Marshal and the trip write
		}
		return x.AppendCanonical(dst)
	default:
		// Rare kinds (json.Number, typed structs, ...) keep exact
		// encoding/json bytes by delegating to it.
		blob, err := json.Marshal(v)
		if err != nil {
			return dst, err
		}
		return append(dst, blob...), nil
	}
}

func appendInt(dst []byte, i int) ([]byte, error) { return AppendInt(dst, int64(i)), nil }

func appendStringValue(dst []byte, s string) ([]byte, error) { return AppendString(dst, s), nil }

// AppendList appends xs as a JSON array, null when nil, each element
// written by each; the first error ends it.
func AppendList[T any](dst []byte, xs []T, each func([]byte, T) ([]byte, error)) ([]byte, error) {
	if xs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	var err error
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = each(dst, x); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// AppendStrings appends ss as a JSON array of strings, null when nil.
func AppendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, s)
	}
	return append(dst, ']')
}

// appendObject appends m as a JSON object with sorted keys, null when
// nil.
func appendObject[V any](dst []byte, m map[string]V, each func([]byte, V) ([]byte, error)) ([]byte, error) {
	if m == nil {
		return append(dst, "null"...), nil
	}
	var buf [smallMap]string
	dst = append(dst, '{')
	var err error
	for i, k := range sortedKeys(buf[:0], m) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(AppendString(dst, k), ':')
		if dst, err = each(dst, m[k]); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// smallMap is how many keys a caller's stack buffer holds for
// sortedKeys: more than a metadata dictionary has.
const smallMap = 16

// sortedKeys appends m's keys to buf and sorts them. It keeps buf from
// escaping (slices.Sort, unlike sort.Strings, takes no interface), so a
// caller passing a stack array sorts a small map without allocating.
func sortedKeys[V any](buf []string, m map[string]V) []string {
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}
