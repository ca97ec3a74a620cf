package extractors

import (
	"strconv"

	"xtract/internal/fastjson"
)

// The library's typed records encode themselves (fastjson.Canonical):
// each writes the bytes the decode-and-re-encode round trip would leave
// of its encoding/json form -- keys in sorted order, an omitempty zero
// or -0 dropped as encoding/json drops it, strings and integers as the
// trip leaves them -- so a step's dictionary is encoded in one pass.

// members appends one record's members in canonical form. The caller
// names them in sorted key order and leaves out an omitempty zero
// itself; keys are plain ASCII and go in as they are. The first error
// sticks, and end reports it.
type members struct {
	dst  []byte
	err  error
	more bool // a member is written: the next one needs a comma
}

func object(dst []byte) members { return members{dst: append(dst, '{')} }

func (m *members) key(k string) {
	if m.more {
		m.dst = append(m.dst, ',')
	}
	m.more = true
	m.dst = append(append(append(m.dst, '"'), k...), '"', ':')
}

func (m *members) text(k, s string) {
	m.key(k)
	m.dst = fastjson.AppendCanonicalString(m.dst, s)
}

func (m *members) integer(k string, i int) {
	m.key(k)
	m.dst = fastjson.AppendCanonicalInt(m.dst, int64(i))
}

func (m *members) flag(k string, b bool) {
	m.key(k)
	m.dst = strconv.AppendBool(m.dst, b)
}

func (m *members) number(k string, f float64) {
	m.key(k)
	m.add(fastjson.AppendFloat(m.dst, f))
}

// value writes a member whose keys are data, such as a composition, by
// fastjson.AppendCanonical: only a map with a key that is not valid
// UTF-8 takes the round trip, and only that map.
func (m *members) value(k string, v interface{}) {
	m.key(k)
	m.add(fastjson.AppendCanonical(m.dst, v))
}

func (m *members) add(dst []byte, err error) {
	if m.err == nil {
		m.dst, m.err = dst, err
	}
}

func (m *members) end() ([]byte, error) { return append(m.dst, '}'), m.err }

// texts writes a list of strings, null when nil.
func (m *members) texts(k string, ss []string) {
	m.key(k)
	m.add(fastjson.AppendList(m.dst, ss, func(dst []byte, s string) ([]byte, error) {
		return fastjson.AppendCanonicalString(dst, s), nil
	}))
}

// integers writes a list of integers, null when nil.
func (m *members) integers(k string, is []int) {
	m.key(k)
	m.add(fastjson.AppendList(m.dst, is, func(dst []byte, i int) ([]byte, error) {
		return fastjson.AppendCanonicalInt(dst, int64(i)), nil
	}))
}

func (m *members) vector(k string, v [3]float64) {
	m.key(k)
	m.add(appendVec(m.dst, v))
}

func (m *members) matrix(k string, rows [3][3]float64) {
	m.key(k)
	m.add(fastjson.AppendList(m.dst, rows[:], appendVec))
}

func appendVec(dst []byte, v [3]float64) ([]byte, error) {
	return fastjson.AppendList(dst, v[:], fastjson.AppendFloat)
}

// appendRecords appends a list of records, null when nil.
func appendRecords[T fastjson.Canonical](dst []byte, xs []T) ([]byte, error) {
	return fastjson.AppendList(dst, xs, func(dst []byte, x T) ([]byte, error) { return x.AppendCanonical(dst) })
}
