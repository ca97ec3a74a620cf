package fastjson

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// roundTrip is the chain AppendCanonical is defined by: what a step's
// metadata used to go through between the worker and the document.
func roundTrip(t testing.TB, v interface{}) ([]byte, error) {
	t.Helper()
	enc, err := AppendValue(nil, v)
	if err != nil {
		return nil, err
	}
	g, err := DecodeValue(enc)
	if err != nil {
		t.Fatalf("own encoding %s of %#v does not decode: %v", enc, v, err)
	}
	return AppendValue(nil, g)
}

func checkCanonical(t testing.TB, v interface{}) {
	t.Helper()
	want, werr := roundTrip(t, v)
	got, gerr := AppendCanonical(nil, v)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%#v: round trip err=%v, canonical err=%v", v, werr, gerr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%#v:\ncanonical:  %s\nround trip: %s", v, got, want)
	}
}

type fieldOrder struct {
	Zeta  string             `json:"zeta"`
	Alpha int                `json:"alpha"`
	Big   uint64             `json:"big,omitempty"`
	Vec   [][3]float64       `json:"vec"`
	Comp  map[string]float64 `json:"comp"`
	Skip  string             `json:"-"`
}

// TestAppendCanonicalSpelledOut writes down what canonical form is, in
// the corners where one encode is not yet it.
func TestAppendCanonicalSpelledOut(t *testing.T) {
	cases := []struct {
		v    interface{}
		want string
	}{
		{"bad \xff utf8 <", "\"bad \uFFFD utf8 \\u003c\""},
		{1<<53 + 1, `9007199254740992`},
		{uint64(math.MaxUint64), `18446744073709552000`},
		{json.Number("1.50"), `1.5`},
		{fieldOrder{Zeta: "z", Alpha: 2, Comp: map[string]float64{"Si": 0.5}},
			`{"alpha":2,"comp":{"Si":0.5},"vec":null,"zeta":"z"}`},
		{map[string]interface{}{"\xff": 1, "\xfe": 2, "b": []string{"x"}, "a": map[string]int{"k": 1}},
			"{\"a\":{\"k\":1},\"b\":[\"x\"],\"\uFFFD\":1}"},
		{map[string]interface{}(nil), `null`},
		{map[string]interface{}{}, `{}`},
	}
	for _, c := range cases {
		got, err := AppendCanonical([]byte("x"), c.v)
		if err != nil || string(got) != "x"+c.want {
			t.Errorf("AppendCanonical(%#v) = %s, %v; want x%s", c.v, got, err, c.want)
		}
	}
}

// TestAppendCanonicalDarkCorners walks the cases where one encode is not
// yet the fixed point: struct-field order, integers a float64 cannot
// hold, invalid UTF-8 in values and in keys (where repair can reorder or
// merge them), and the kinds AppendValue hands to encoding/json.
func TestAppendCanonicalDarkCorners(t *testing.T) {
	values := []interface{}{
		nil, true, "plain", "html <&> \u2028", "bad \xff\xfe utf8", "\xed\xa0\x80",
		0, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64,
		int64(1<<62 + 12345), int32(-5), uint(7), uint64(1<<53 + 1), uint64(math.MaxUint64),
		1.5, -0.0, 1e21, 1e-7, 123456789012345680.0, math.SmallestNonzeroFloat64,
		[]string{"a", "\xff"}, []string(nil), []string{},
		map[string]string{"k": "\xff", "\xffk": "v"}, map[string]string(nil),
		map[string]interface{}(nil), map[string]interface{}{}, []interface{}(nil), []interface{}{},
		map[string]interface{}{"b": 1, "a": []interface{}{1 << 60, "x\xff"}},
		// Either side of what the plain shortcut may take in one encode.
		map[string]interface{}{"n": 1 << 53, "m": -(1 << 53), "f": -0.0, "s": []interface{}{"\uFFFD", nil}},
		map[string]interface{}{"in": map[string]interface{}{"n": 1<<53 + 1}},
		map[string]interface{}{"in": []interface{}{map[string]interface{}{"k\xff": 1}}},
		// Two keys that repair to the same key, and keys whose order flips.
		map[string]interface{}{"\xff": 1, "\xfe": 2, "\xef\xbf\xbd": 3},
		map[string]interface{}{"a\xff": 1, "a\xf0\x9f\x98\x80": 2, "a~": 3},
		fieldOrder{Zeta: "z\xff", Alpha: 1 << 60, Big: math.MaxUint64,
			Vec: [][3]float64{{1, 2.5, 1e-9}}, Comp: map[string]float64{"Si": 0.5, "O": 1e22}},
		[]fieldOrder{{}, {Zeta: "<"}},
		&fieldOrder{},
		map[string]int{"b": 1 << 60, "a": 2},
		[]int{3, 1 << 55}, [3]float64{1, 2, 3}, []float64(nil),
		// The flat typed kinds the plain shortcut takes, nil and empty, and
		// each one's way of not being plain.
		[]int(nil), []int{}, []int{0, -7, 1 << 53, -(1 << 53)}, []int{1, 1<<53 + 1}, []int{-(1<<53 + 1)},
		[]float64{}, []float64{1.5, -0.0, 1e21, 1e-7, 5e-324}, []float64{1, math.NaN()}, []float64{math.Inf(-1)},
		[]string{"a", "<&>", "\u2028", "\uFFFD"}, map[string]string{}, map[string]string{"b": "<", "a": "\u00e9"},
		[]interface{}{[]string{"x"}, []int{1}, []float64{2}, map[string]string{"k": "v"}, []interface{}{nil}},
		[]interface{}{[]string{"\xff"}}, []interface{}{map[string]string{"\xff": "v"}}, []interface{}{[]int{1 << 60}},
		map[string]interface{}{"rdf": []int{0, 3, 9}, "keywords": []interface{}{map[string]interface{}{"keyword": "x", "weight": 0.5}},
			"null_columns": []string{}, "classes": map[string]string{"/a.png": "plot"}, "v": []float64{0.25}},
		json.Number("1.50"), json.Number("12345678901234567890"), json.RawMessage(`{"b": 1.0, "a":"\/"}`),
		map[string]map[string]interface{}{"g": {"y": 1, "x": fieldOrder{}}},
		map[string]interface{}{"nan": math.NaN()}, math.Inf(1), func() {},
		map[string]interface{}{"deep": map[string]interface{}{"\xff": fieldOrder{}}},
	}
	for _, v := range values {
		checkCanonical(t, v)
	}
	// The fixed point really is one: canonical bytes decode to a value
	// that encodes to the same bytes.
	for _, v := range values {
		enc, err := AppendCanonical(nil, v)
		if err != nil {
			continue
		}
		g, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("canonical %s does not decode: %v", enc, err)
		}
		if again, _ := AppendValue(nil, g); !bytes.Equal(again, enc) {
			t.Fatalf("canonical %s is not a fixed point: %s", enc, again)
		}
	}
}

// TestPlainKinds pins which values skip the decode: AppendCanonical is
// right either way, so only this table and the allocation count can tell
// whether a dictionary of the kinds extractors return takes one encode.
func TestPlainKinds(t *testing.T) {
	cases := []struct {
		v    interface{}
		want bool
	}{
		{[]int(nil), true}, {[]int{}, true}, {[]int{1 << 53, -(1 << 53)}, true}, {[]int{1<<53 + 1}, false}, {[]int{0, -(1<<53 + 1)}, false},
		{[]float64(nil), true}, {[]float64{}, true}, {[]float64{-0.0, 1e300}, true},
		{[]string(nil), true}, {[]string{}, true}, {[]string{"a", "\u00e9"}, true}, {[]string{"a", "\xff"}, false},
		{map[string]string(nil), true}, {map[string]string{"k": "v"}, true}, {map[string]string{"k": "\xff"}, false}, {map[string]string{"\xff": "v"}, false},
		{[]interface{}(nil), true}, {[]interface{}{}, true}, {[]interface{}{1, "s", nil, []int{2}}, true}, {[]interface{}{[]int{1 << 60}}, false},
		{[]interface{}{int64(1)}, false}, {[]int64{1}, false}, {[]bool{true}, false}, {[3]float64{}, false}, {map[string]int{"a": 1}, false},
		{map[string]interface{}{"rdf": []int{1}, "tags": []string{"a"}, "m": map[string]string{"a": "b"}, "l": []interface{}{0.5}}, true},
		{map[string]interface{}{"l": []interface{}{map[string]interface{}{"k": []string{"\xff"}}}}, false},
	}
	for _, c := range cases {
		if got := plain(c.v); got != c.want {
			t.Errorf("plain(%#v) = %v, want %v", c.v, got, c.want)
		}
		checkCanonical(t, c.v)
	}
	md := map[string]interface{}{"rdf": []int{0, 1 << 20, 1 << 53}, "tags": []string{"a", "b"}, "w": []float64{1, 2}}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendCanonical(buf[:0], md) }); n > 1 {
		t.Errorf("a plain dictionary took %v allocations to encode: want the sorted key slice and no decode", n)
	}
}

// randomValue draws a metadata-shaped value: the generic kinds a decode
// produces mixed with the typed kinds extractors return.
func randomValue(rng *rand.Rand, depth int) interface{} {
	str := func() string {
		alphabet := []string{"a", "b", "<", "\u00e9", "\u2028", "\xff", "\xf0\x9f", "\"", "\\", "\n", "\xef\xbf\xbd"}
		n := rng.Intn(4)
		s := ""
		for i := 0; i < n; i++ {
			s += alphabet[rng.Intn(len(alphabet))]
		}
		return s
	}
	num := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return float64(rng.Intn(100))
		case 1:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
		case 2:
			return float64(rng.Int63())
		default:
			return rng.Float64()
		}
	}
	leaf := 18
	if depth > 3 {
		leaf = 11 // scalars and flat typed kinds only
	}
	switch rng.Intn(leaf) {
	case 0:
		return nil
	case 1:
		return rng.Intn(2) == 0
	case 2:
		return str()
	case 3:
		return num()
	case 4:
		return rng.Intn(1000) - 500
	case 5:
		return rng.Int63() - rng.Int63()
	case 6:
		return rng.Uint64()
	case 7:
		out := make([]string, rng.Intn(3))
		for i := range out {
			out[i] = str()
		}
		return out
	case 8:
		return map[string]float64{str(): num(), str(): num()}
	case 9:
		return [][3]float64{{num(), num(), num()}}
	case 10:
		return fieldOrder{Zeta: str(), Alpha: int(rng.Int63()), Big: rng.Uint64(), Comp: map[string]float64{str(): num()}}
	case 11, 12:
		m := make(map[string]interface{})
		for i := rng.Intn(4); i > 0; i-- {
			m[str()] = randomValue(rng, depth+1)
		}
		return m
	case 13:
		out := make([]interface{}, rng.Intn(4))
		for i := range out {
			out[i] = randomValue(rng, depth+1)
		}
		return out
	case 14:
		return map[string]string{str(): str()}
	case 15:
		return []int{rng.Intn(9), int(rng.Int63() >> uint(rng.Intn(20))), -rng.Intn(1 << 30)}
	case 16:
		return []float64{num(), num()}
	default:
		return []map[string]interface{}{{str(): randomValue(rng, depth+1)}}
	}
}

// FuzzCanonical holds AppendCanonical to its definition on arbitrary
// metadata-shaped values (drawn from the seed), and on whatever generic
// value the bytes decode to -- for which one encode already is canonical.
func FuzzCanonical(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, []byte(`{"b":[1,2.50,"\ud800"],"a":{"k":12345678901234567890}}`))
	}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			checkCanonical(t, map[string]interface{}{"md": randomValue(rng, 0)})
		}
		g, err := DecodeValue(data)
		if err != nil {
			return
		}
		plain, err := AppendValue(nil, g)
		if err != nil {
			t.Fatalf("decoded %q but cannot encode: %v", data, err)
		}
		canon, err := AppendCanonical(nil, g)
		if err != nil || !bytes.Equal(canon, plain) {
			t.Fatalf("generic value of %q: canonical %s (%v), plain %s", data, canon, err, plain)
		}
		back, err := DecodeValue(canon)
		if err != nil || !reflect.DeepEqual(back, g) {
			t.Fatalf("canonical %s of %q decodes to %#v (%v), want %#v", canon, data, back, err, g)
		}
	})
}

func TestAppendRawMap(t *testing.T) {
	if got := AppendRawMap(nil, nil); string(got) != "null" {
		t.Fatalf("nil map = %s", got)
	}
	m := map[string]Raw{"b/x": Raw(`{"k":1}`), "a<": nil, "c": Raw(`null`), "b": Raw(`{ }`)}
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	// encoding/json compacts a RawMessage; the splice does not.
	want = bytes.Replace(want, []byte(`"b":{}`), []byte(`"b":{ }`), 1)
	if got := AppendRawMap([]byte("x"), m); string(got) != "x"+string(want) {
		t.Fatalf("got %s, want x%s", got, want)
	}
}

func TestDecRawObjectAndStrings(t *testing.T) {
	d := NewDec([]byte(` [ {"a": [1,2]} , null, ["x", "y"], null, [] ]`))
	var raws []Raw
	var lists [][]string
	i := 0
	err := d.ArrEach(func() error {
		defer func() { i++ }()
		if i < 2 {
			r, err := d.RawObject()
			raws = append(raws, r)
			return err
		}
		l, err := d.Strings()
		lists = append(lists, l)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(raws[0]) != `{"a": [1,2]}` || raws[1] != nil {
		t.Fatalf("raws = %q", raws)
	}
	if !reflect.DeepEqual(lists, [][]string{{"x", "y"}, nil, {}}) {
		t.Fatalf("lists = %#v", lists)
	}
	for _, bad := range []string{`[1]`, `"s"`, `5`, `true`, `{"a":}`, ``} {
		if _, err := NewDec([]byte(bad)).RawObject(); err == nil {
			t.Errorf("RawObject accepted %q", bad)
		}
	}
	for _, bad := range []string{`{}`, `["a",1]`, `["a",null]`, `"s"`} {
		if _, err := NewDec([]byte(bad)).Strings(); err == nil {
			t.Errorf("Strings accepted %q", bad)
		}
	}
}
