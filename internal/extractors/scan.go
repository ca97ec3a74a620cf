package extractors

import (
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
