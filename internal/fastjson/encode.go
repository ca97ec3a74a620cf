// Package fastjson is the hot-path JSON codec: append-style encoders and
// a pull decoder that replace reflection-driven encoding/json on the
// per-task critical path (dispatch payloads, FaaS handler bodies,
// validation records, journal metadata). Every encoder is byte-identical
// to encoding/json.Marshal for the inputs the pipeline produces -- same
// HTML escaping, same float format, same sorted map keys -- and a fuzz +
// table suite pins the equivalence (AppendCanonical, which writes what a
// decode and re-encode would, is the one that differs). The decoder
// accepts exactly the JSON grammar encoding/json accepts (strict numbers,
// UTF-8 repair, surrogate pairs, a nesting-depth bound) and produces the
// same generic values (float64 numbers, map[string]interface{} objects).
//
// Encoders append into caller-owned buffers, so the pipeline can reuse
// pooled scratch across tasks: the alloc-free discipline the perf gate's
// allocs_per_step bound enforces.
package fastjson

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
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
func AppendString(dst []byte, s string) []byte {
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
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
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

// AppendValue appends v's JSON encoding, byte-identical to
// encoding/json.Marshal(v). The dynamic kinds the extraction pipeline
// produces (decoded JSON values, extractor metadata) are encoded without
// reflection; anything else falls back to encoding/json, which keeps the
// byte equivalence by construction. Map keys are sorted, as encoding/json
// does.
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
		return appendMap(dst, x)
	case []interface{}:
		return appendList(dst, x, AppendValue)
	case []int:
		return appendList(dst, x, func(dst []byte, i int) ([]byte, error) { return AppendInt(dst, int64(i)), nil })
	case []float64:
		return appendList(dst, x, AppendFloat)
	case map[string]string:
		if x == nil {
			return append(dst, "null"...), nil
		}
		return AppendStringMap(dst, x), nil
	case []string:
		return AppendStrings(dst, x), nil
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

// appendList appends xs as a JSON array, null when nil.
func appendList[T any](dst []byte, xs []T, each func([]byte, T) ([]byte, error)) ([]byte, error) {
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

// appendMap encodes a generic object with sorted keys.
func appendMap(dst []byte, m map[string]interface{}) ([]byte, error) {
	if m == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '{')
	keys := sortedKeys(m)
	var err error
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, k)
		dst = append(dst, ':')
		if dst, err = AppendValue(dst, m[k]); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// AppendStringMap appends a map[string]string object with sorted keys,
// byte-identical to encoding/json. The caller has checked for nil.
func AppendStringMap(dst []byte, m map[string]string) []byte {
	dst = append(dst, '{')
	for i, k := range sortedKeys(m) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, k)
		dst = append(dst, ':')
		dst = AppendString(dst, m[k])
	}
	return append(dst, '}')
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
