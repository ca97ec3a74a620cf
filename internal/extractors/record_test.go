package extractors

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"xtract/internal/fastjson"
)

// TripReference is the round trip every step's metadata took before the
// library's records encoded themselves: encoding/json's bytes, decoded
// to generic values, encoded again. The records' appenders and
// fastjson.AppendCanonical are held to it byte for byte (exported for
// corpus_test.go).
func TripReference(v interface{}) ([]byte, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	g, err := fastjson.DecodeValue(blob)
	if err != nil {
		return nil, err
	}
	return fastjson.AppendValue(nil, g)
}

// checkTrip holds v's canonical encoding, alone and inside a dictionary,
// to the round trip: the same bytes, or an error on both sides.
func checkTrip(t *testing.T, v interface{}) {
	t.Helper()
	for _, x := range []interface{}{v, map[string]interface{}{"rec": v, "n": 1}} {
		got, gerr := fastjson.AppendCanonical(nil, x)
		want, werr := TripReference(x)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%#v: canonical err=%v, round trip err=%v", x, gerr, werr)
		}
		if gerr == nil && !bytes.Equal(got, want) {
			t.Fatalf("%#v:\ncanonical:  %s\nround trip: %s", x, got, want)
		}
	}
}

// recordGen draws field values from the corners where one encode and
// the round trip could part: invalid UTF-8 (and keys that repair to the
// same key), escapes, NaN and the infinities, both zeros, integers a
// float64 cannot hold, nil and empty lists and maps. The fuzzer's own
// string, float and integer join the pools.
type recordGen struct {
	rng *rand.Rand
	s   string
	f   float64
	n   int64
}

func (g recordGen) str() string {
	pool := []string{"", "Si", "a<b&c>", "\u2028", "bad \xff", "\xfe", "\xef\xbf\xbd", "\xed\xa0\x80", "\"q\"\\\n", "caf\u00e9", g.s}
	return pool[g.rng.Intn(len(pool))]
}

func (g recordGen) num() float64 {
	pool := []float64{0, math.Copysign(0, -1), 1.5, -3.25, 1e21, 1e-7, 5e-324, 123456789012345680, g.f,
		g.rng.NormFloat64() * math.Pow(10, float64(g.rng.Intn(40)-20)), math.NaN(), math.Inf(1), math.Inf(-1)}
	if g.rng.Intn(4) > 0 {
		pool = pool[:len(pool)-3] // keep most records encodable
	}
	return pool[g.rng.Intn(len(pool))]
}

func (g recordGen) int() int {
	pool := []int64{0, 1, -1, 1 << 53, -(1 << 53), 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64, g.n, g.rng.Int63n(1000)}
	return int(pool[g.rng.Intn(len(pool))])
}

func (g recordGen) strs() []string {
	if g.rng.Intn(4) == 0 {
		return nil
	}
	out := make([]string, g.rng.Intn(3))
	for i := range out {
		out[i] = g.str()
	}
	return out
}

func (g recordGen) ints() []int {
	if g.rng.Intn(4) == 0 {
		return nil
	}
	out := make([]int, g.rng.Intn(3))
	for i := range out {
		out[i] = g.int()
	}
	return out
}

// keyed fills a data-keyed map, nil a quarter of the time, with keys
// that include invalid bytes repairing to the same key.
func keyed[V any](g recordGen, val func() V) map[string]V {
	if g.rng.Intn(4) == 0 {
		return nil
	}
	m := make(map[string]V)
	for i := g.rng.Intn(4); i > 0; i-- {
		m[g.str()] = val()
	}
	return m
}

func (g recordGen) vec() [3]float64 { return [3]float64{g.num(), g.num(), g.num()} }

// records draws one value of every library record type.
func (g recordGen) records() []interface{} {
	cols := Columns{}
	if g.rng.Intn(4) == 0 {
		cols = nil
	}
	for i := g.rng.Intn(3); i > 0; i-- {
		cols = append(cols, ColumnStats{Name: g.str(), Type: g.str(), Count: g.int(), Nulls: g.int(),
			Mean: g.num(), Min: g.num(), Max: g.num(), Stddev: g.num(), Distinct: g.int()})
	}
	var ents Entities
	var kws Keywords
	for i := g.rng.Intn(3); i > 0; i-- {
		ents = append(ents, EntityMention{Text: g.str(), Type: g.str()})
		kws = append(kws, KeywordWeight{Keyword: g.str(), Weight: g.num()})
	}
	return []interface{}{
		cols, ents, kws,
		Structure{Comment: g.str(), Scale: g.num(), Lattice: [3][3]float64{g.vec(), g.vec(), g.vec()}, Volume: g.num(),
			Species: g.strs(), Counts: g.ints(), NAtoms: g.int(), Composition: keyed(g, g.num),
			Coords: [][3]float64{g.vec()}},
		VASPResults{FinalEnergyEV: g.num(), EFermi: g.num(), IonicSteps: g.int(), Converged: g.rng.Intn(2) == 0},
		Crystal{Formula: g.str(), CellA: g.num(), CellB: g.num(), CellC: g.num(), Angles: g.vec(),
			Tags: keyed(g, g.str), Lengths: map[string]float64{"a": g.num()}},
		Geometry{NAtoms: g.int(), Comment: g.str(), Symbols: keyed(g, g.int), Coords: [][3]float64{g.vec()}},
	}
}

// TestRecordsMatchTrip: the zero record of every type, whose omitempty
// fields all drop, and a fixed draw of filled ones.
func TestRecordsMatchTrip(t *testing.T) {
	zeros := []interface{}{Columns(nil), Columns{{}}, Entities(nil), Entities{{}}, Keywords(nil), Keywords{{}},
		Structure{}, VASPResults{}, Crystal{}, Crystal{Tags: map[string]string{}}, Geometry{}, (*Structure)(nil), &Crystal{}}
	for _, v := range zeros {
		checkTrip(t, v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		for _, v := range (recordGen{rng: rng, s: "x", f: 2.5, n: 7}).records() {
			checkTrip(t, v)
		}
	}
}

func FuzzRecordsMatchTrip(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, "\xff\xfe", math.Copysign(0, -1), int64(1<<53+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, s string, x float64, n int64) {
		g := recordGen{rng: rand.New(rand.NewSource(seed)), s: s, f: x, n: n}
		for i := 0; i < 4; i++ {
			for _, v := range g.records() {
				checkTrip(t, v)
			}
		}
	})
}
