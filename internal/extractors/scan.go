package extractors

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// Scanning helpers shared by the tabular, keyword, materials and
// semi-structured kernels. Each walks its input once and allocates
// nothing; where one is exact only for ASCII, text with a byte >= 0x80
// goes to the strings function it stands in for.

// nextLine cuts the first line off text. The empty remainder after a
// final '\n' is not a line: the one difference from ranging over
// strings.Split(text, "\n"), and no caller takes an empty line as
// content.
func nextLine(text string) (line, rest string, ok bool) {
	line, rest, _ = strings.Cut(text, "\n")
	return line, rest, text != ""
}

// appendFields appends the fields of s, as strings.Fields splits them,
// to dst; with room in dst (a caller's stack buffer) it allocates
// nothing. A byte >= 0x80 may begin a Unicode space (U+0085, U+00A0,
// U+2003, ...), so such a line goes to strings.Fields itself.
func appendFields(dst []string, s string) []string {
	base, start := len(dst), -1
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf:
			return append(dst[:base], strings.Fields(s)...)
		case c == ' ' || ('\t' <= c && c <= '\r'):
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// isASCII reports whether s has no byte >= 0x80.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// containsLower reports whether strings.ToLower(s) contains sub, which
// is lower-case ASCII. An ASCII s is folded byte by byte where it lies;
// any other takes strings.ToLower (U+0130 lowers to 'i').
func containsLower(s, sub string) bool {
	if !isASCII(s) {
		return strings.Contains(strings.ToLower(s), sub)
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		j := 0
		for j < len(sub) && lowerASCII(s[i+j]) == sub[j] {
			j++
		}
		if j == len(sub) {
			return true
		}
	}
	return false
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// errNotFloat is parseFloat's answer for a string whose first bytes
// already rule out a float: one value, where strconv allocates a
// *NumError per call.
var errNotFloat error = &strconv.NumError{Func: "ParseFloat", Err: strconv.ErrSyntax}

// pow10 are the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseFloat is strconv.ParseFloat(s, 64), bit for bit, erring exactly
// when it does. A plain decimal (a sign, digits with at most one '.',
// at most 15 significant digits and 22 after the point) is computed as
// strconv's exact path computes it: the integer of its digits, below
// 10^15 and so exact in a float64, divided by an exact power of ten, one
// correctly rounded operation. A string whose first byte after the sign
// cannot begin any float strconv accepts (a digit, '.', i/I for inf, n/N
// for nan), or a word after it not as long as inf, nan or infinity, gets
// errNotFloat. Everything else (exponents, inf, nan, hex, underscores,
// longer mantissas) is strconv's.
func parseFloat(s string) (float64, error) {
	i := 0
	if s != "" && (s[0] == '+' || s[0] == '-') {
		i = 1
	}
	if i < len(s) {
		switch c := s[i]; {
		case '0' <= c && c <= '9' || c == '.':
		case (c|0x20 == 'i' || c|0x20 == 'n') && (len(s)-i == 3 || len(s)-i == 8):
			return strconv.ParseFloat(s, 64) // inf, infinity, nan or an error
		default:
			return 0, errNotFloat
		}
	}
	var m uint64
	start := i
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		m = m*10 + uint64(s[i]-'0')
	}
	whole, frac := i-start, 0
	if i < len(s) && s[i] == '.' {
		i++
		point := i
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			m = m*10 + uint64(s[i]-'0')
		}
		frac = i - point
	}
	// Past 19 digits m may have wrapped: such a string is strconv's too.
	if n := whole + frac; i < len(s) || n == 0 || n > 19 || m >= 1e15 || frac > 22 {
		return strconv.ParseFloat(s, 64)
	}
	f := float64(m)
	if s[0] == '-' {
		f = -f
	}
	return f / pow10[frac], nil
}
