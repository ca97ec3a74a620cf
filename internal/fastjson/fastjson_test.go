package fastjson

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// tortureStrings are the string-escaping edge cases the encoder and
// decoder must agree with encoding/json on: HTML specials, two-char
// escapes, control bytes, multibyte UTF-8, invalid UTF-8 (\xff, \xc3
// cut short), and the JS line separators U+2028/U+2029 (spelled as raw
// bytes to keep this file ASCII-clean).
var tortureStrings = []string{
	"",
	"plain ascii",
	"quote\" backslash\\ slash/",
	"newline\n return\r tab\t",
	"html <tag> & entity",
	"ctrl\x00\x01\x1f\x7f",
	"utf8 éü ключ 世界",
	"bad utf8 \xff mid\xc3 end",
	"line seps \xe2\x80\xa8 and \xe2\x80\xa9",
	"mix<&>\"\\\n\xffok",
	strings.Repeat("long ascii segment ", 50),
}

func TestAppendStringEquivalence(t *testing.T) {
	for _, s := range tortureStrings {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", s, err)
		}
		got := AppendString(nil, s)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
}

func TestAppendFloatEquivalence(t *testing.T) {
	floats := []float64{
		0, 1, -1, 0.5, -0.5, 3.14159, 1e-6, 9.999e-7, 1e-7, 1e20, 1e21,
		1e22, -1e21, 123456789.123456, math.MaxFloat64, math.SmallestNonzeroFloat64,
		2.5e-5, 7, 1000000, math.Copysign(0, -1),
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", f, err)
		}
		got, err := AppendFloat(nil, f)
		if err != nil {
			t.Fatalf("AppendFloat(%v): %v", f, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
	}
	if _, err := AppendFloat(nil, math.NaN()); err == nil {
		t.Error("AppendFloat(NaN) should fail as encoding/json does")
	}
	if _, err := AppendFloat(nil, math.Inf(1)); err == nil {
		t.Error("AppendFloat(+Inf) should fail as encoding/json does")
	}
}

func TestAppendValueEquivalence(t *testing.T) {
	values := []interface{}{
		nil,
		true,
		false,
		"str with <html> & \xff",
		float64(12.25),
		int(42),
		int64(-7),
		int32(9),
		uint64(18446744073709551615),
		uint(3),
		map[string]interface{}{},
		map[string]interface{}{"b": 1, "a": "x", "c": nil, "z<&>": true},
		map[string]interface{}{"nested": map[string]interface{}{"k": []interface{}{1.5, "s", nil, false}}},
		[]interface{}{},
		[]interface{}{map[string]interface{}{"x": 1}, "y"},
		[]interface{}(nil),
		map[string]string{"k2": "v2", "k1": "v<1>"},
		map[string]string(nil),
		[]string{"a", "b\n", ""},
		[]string(nil),
		map[string]map[string]interface{}{
			"ext2": {"files": float64(3)},
			"ext1": {"b": "x", "a": float64(1)},
		},
		map[string]map[string]interface{}(nil),
		map[string]float64{"Si": 0.5, "O": 1e22, "<\xff": -0.0},
		map[string]float64(nil),
		map[string]int{"b": 1 << 60, "a": -2, "\xfe": 0},
		map[string]int(nil),
		json.RawMessage(`{"passthrough":1}`),
	}
	for _, v := range values {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("json.Marshal(%#v): %v", v, err)
		}
		got, err := AppendValue(nil, v)
		if err != nil {
			t.Fatalf("AppendValue(%#v): %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("AppendValue(%#v) = %s, want %s", v, got, want)
		}
	}
}

func TestDecodeValueEquivalence(t *testing.T) {
	docs := []string{
		`null`, `true`, `false`, `0`, `-0`, `1`, `-1`, `3.5`, `1e2`, `1E+2`,
		`1.25e-3`, `"str"`, `""`,
		"\"\\u0041\\u00e9\\u4e16\"", "\"\\ud83d\\ude00\"",
		"\"\\ud800\"", "\"\\udc00 low alone\"", "\"\\ud800x\"", "\"a\\u2028b\"",
		"\"esc \\\\ \\\" \\/ \\b \\f \\n \\r \\t\"", "\"\\u0000\"",
		`{}`, `[]`, `[1,2,3]`, `{"a":1,"b":[true,null,"s"]}`,
		`{"dup":1,"dup":2}`, `{"a":{"b":{"c":[{"d":null}]}}}`,
		` { "ws" : [ 1 , 2 ] } `, "\t[\n1\r]\n",
		`9007199254740993`, `-9223372036854775808`, `123456789012345678901234567890`,
	}
	// Invalid UTF-8 and control bytes, built without raw escapes.
	docs = append(docs, "\"bad \xff utf8\"", "\"cut \xc3\"")
	for _, doc := range docs {
		var want interface{}
		jerr := json.Unmarshal([]byte(doc), &want)
		got, gerr := DecodeValue([]byte(doc))
		if (jerr == nil) != (gerr == nil) {
			t.Errorf("doc %q: json err=%v, fastjson err=%v", doc, jerr, gerr)
			continue
		}
		if jerr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("doc %q: fastjson %#v, json %#v", doc, got, want)
		}
	}
}

func TestDecodeValueRejects(t *testing.T) {
	bad := []string{
		``, ` `, `{`, `}`, `[`, `]`, `{]`, `[}`, `{"a"}`, `{"a":}`, `{"a":1,}`,
		`[1,]`, `[1 2]`, `{"a" 1}`, `01`, `1.`, `.5`, `-`, `1e`, `1e+`, `+1`,
		`nul`, `tru`, `falsey`, `"unterminated`, "\"ctrl \x01\"", "\"bad \\q esc\"",
		"\"bad \\u12\"", "\"bad \\uzzzz\"", `1 2`, `{} {}`, `"a" "b"`, `NaN`,
		`Infinity`, `'single'`, `1e999`, "\xef\xbb\xbf1",
	}
	for _, doc := range bad {
		var v interface{}
		if jerr := json.Unmarshal([]byte(doc), &v); jerr == nil {
			t.Fatalf("doc %q: expected encoding/json to reject it too", doc)
		}
		if _, err := DecodeValue([]byte(doc)); err == nil {
			t.Errorf("doc %q: fastjson accepted invalid input", doc)
		}
	}
}

func TestDecTypedReads(t *testing.T) {
	d := NewDec([]byte(`{"s":"v","i":42,"neg":-17,"f":2.5,"b":true,"skip":{"x":[1,2]},"raw":[1,"two"]}`))
	var s string
	var i, neg int64
	var f float64
	var b bool
	var raw []byte
	err := d.ObjEach(func(key []byte) error {
		var err error
		switch string(key) {
		case "s":
			s, err = d.Str()
		case "i":
			i, err = d.Int64()
		case "neg":
			neg, err = d.Int64()
		case "f":
			f, err = d.Float()
		case "b":
			b, err = d.Bool()
		case "raw":
			raw, err = d.Raw()
		default:
			err = d.Skip()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.End(); err != nil {
		t.Fatal(err)
	}
	if s != "v" || i != 42 || neg != -17 || f != 2.5 || !b || string(raw) != `[1,"two"]` {
		t.Fatalf("typed reads wrong: %q %d %d %v %v %s", s, i, neg, f, b, raw)
	}

	// Int64 must reject fractional/exponent forms like encoding/json.
	for _, doc := range []string{`3.5`, `1e2`} {
		d.Reset([]byte(doc))
		if _, err := d.Int64(); err == nil {
			t.Errorf("Int64(%s) should fail", doc)
		}
	}

	// Reset reuses the decoder, and huge int64s still parse exactly.
	d.Reset([]byte(`9223372036854775807`))
	if v, err := d.Int64(); err != nil || v != math.MaxInt64 {
		t.Fatalf("max int64: %d, %v", v, err)
	}
	d.Reset([]byte(`-9223372036854775808`))
	if v, err := d.Int64(); err != nil || v != math.MinInt64 {
		t.Fatalf("min int64: %d, %v", v, err)
	}
	d.Reset([]byte(`9223372036854775808`))
	if _, err := d.Int64(); err == nil {
		t.Fatal("int64 overflow should fail")
	}
}

func TestDecDepthLimit(t *testing.T) {
	deep := strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1)
	if _, err := DecodeValue([]byte(deep)); err == nil {
		t.Fatal("expected depth-limit error")
	}
	ok := strings.Repeat("[", 100) + "1" + strings.Repeat("]", 100)
	if _, err := DecodeValue([]byte(ok)); err != nil {
		t.Fatalf("100-deep doc should parse: %v", err)
	}
	// Skip keeps the same bound, past the levels its open set holds
	// without allocating.
	for _, c := range []struct {
		depth int
		ok    bool
	}{{maxDepth, true}, {maxDepth + 1, false}} {
		doc := strings.Repeat(`{"k":[`, c.depth/2) + strings.Repeat("[", c.depth%2) +
			strings.Repeat("]", c.depth%2) + strings.Repeat(`]}`, c.depth/2)
		if err := NewDec([]byte(doc)).Skip(); (err == nil) != c.ok {
			t.Errorf("Skip at depth %d: err = %v", c.depth, err)
		}
	}
}

// FuzzStringRoundTrip pins AppendString to json.Marshal bytes and the
// decoder's string reader to json's unescaping on arbitrary input.
func FuzzStringRoundTrip(f *testing.F) {
	for _, s := range tortureStrings {
		f.Add(s)
	}
	f.Add("\\u2028 spelled out")
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Skip()
		}
		got := AppendString(nil, s)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got, want)
		}
		// Decode what we encoded: must equal what encoding/json decodes.
		var viaJSON string
		if err := json.Unmarshal(got, &viaJSON); err != nil {
			t.Fatalf("json cannot re-read AppendString output %s: %v", got, err)
		}
		d := NewDec(got)
		viaFast, err := d.Str()
		if err != nil {
			t.Fatalf("fastjson cannot re-read %s: %v", got, err)
		}
		if err := d.End(); err != nil {
			t.Fatal(err)
		}
		if viaFast != viaJSON {
			t.Fatalf("decode mismatch: fastjson %q, json %q", viaFast, viaJSON)
		}
	})
}

// FuzzDecodeValue enforces full accept/reject parity with
// encoding/json.Unmarshal into interface{}, value equality on success,
// and that re-encoding the decoded value matches json.Marshal.
func FuzzDecodeValue(f *testing.F) {
	seeds := []string{
		`{"a":[1,2.5,"s",null,true],"b":{"c":"d"}}`, `[[[[[]]]]]`, "\"\\ud834\\udd1e\"",
		`-12.5e-3`, `{"dup":1,"dup":{"x":2}}`, `12345678901234567890`, `{"":""}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Add([]byte("\"raw \xff bytes\""))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want interface{}
		jerr := json.Unmarshal(data, &want)
		got, gerr := DecodeValue(data)
		if (jerr == nil) != (gerr == nil) {
			t.Fatalf("doc %q: json err=%v, fastjson err=%v", data, jerr, gerr)
		}
		if jerr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %q: fastjson %#v, json %#v", data, got, want)
		}
		wantEnc, err := json.Marshal(want)
		if err != nil {
			return
		}
		gotEnc, err := AppendValue(nil, got)
		if err != nil {
			t.Fatalf("AppendValue(%#v): %v", got, err)
		}
		if !bytes.Equal(gotEnc, wantEnc) {
			t.Fatalf("re-encode of %q: fastjson %s, json %s", data, gotEnc, wantEnc)
		}
	})
}

// FuzzSkipMatchesValid holds the skipper to encoding/json's grammar: a
// document that is one skipped value and nothing after it is exactly a
// document json.Valid accepts, and Raw hands back the value's own bytes.
func FuzzSkipMatchesValid(f *testing.F) {
	for _, s := range []string{
		`{"a":[1,-0.5e+3,true,false,null,"é\n"],"b":{}}`, ` [ [] , {} ] `, `"\ud800"`,
		`{"a":}`, `[1,]`, `{"a" 1}`, `01`, `1.`, `-`, `"\x"`, "\"\x01\"", `tru`, `nul`, `[}`, `{]`,
		strings.Repeat("[", 200) + strings.Repeat("]", 200), `{"k":[{"k":[{"k":[]}]}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDec(data)
		raw, err := d.Raw()
		if err == nil {
			err = d.End()
		}
		if (err == nil) != json.Valid(data) {
			t.Fatalf("%q: Skip err = %v, json.Valid = %v", data, err, json.Valid(data))
		}
		if err == nil && !bytes.Equal(raw, bytes.TrimSpace(data)) {
			t.Fatalf("%q: Raw = %q", data, raw)
		}
	})
}
