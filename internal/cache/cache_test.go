package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"xtract/internal/fastjson"
)

func md(v string) map[string]interface{} {
	return map[string]interface{}{"value": v}
}

func TestHitMissAndLRUEviction(t *testing.T) {
	c := New(2)
	k1 := Key{ContentHash: "h1", Extractor: "keyword", Version: "1"}
	k2 := Key{ContentHash: "h2", Extractor: "keyword", Version: "1"}
	k3 := Key{ContentHash: "h3", Extractor: "keyword", Version: "1"}

	if _, ok := c.Get(k1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k1, md("a"))
	c.Put(k2, md("b"))
	got, ok := c.Get(k1)
	if !ok || string(got) != `{"value":"a"}` {
		t.Fatalf("k1 = %s, %v", got, ok)
	}
	// k2 is now least recently used; k3 must evict it, not k1.
	c.Put(k3, md("c"))
	if _, ok := c.Get(k2); ok {
		t.Fatal("evicted k2 still hits")
	}
	if _, ok := c.Get(k1); !ok {
		t.Fatal("recently used k1 was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d", st.Hits, st.Misses)
	}
}

func TestVersionAndContentInvalidation(t *testing.T) {
	c := New(0)
	k := Key{ContentHash: "h1", Extractor: "keyword", Version: "1"}
	c.Put(k, md("a"))
	if _, ok := c.Get(Key{ContentHash: "h1", Extractor: "keyword", Version: "2"}); ok {
		t.Fatal("version bump did not invalidate")
	}
	if _, ok := c.Get(Key{ContentHash: "h2", Extractor: "keyword", Version: "1"}); ok {
		t.Fatal("content change did not invalidate")
	}
	if _, ok := c.Get(Key{ContentHash: "h1", Extractor: "tabular", Version: "1"}); ok {
		t.Fatal("extractor change did not invalidate")
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("original key should still hit")
	}
}

// TestBytesAreStoredOnceAndHandedOut pins the cache's side of the
// encode-once contract: PutRaw keeps the slice it is given, every Get
// returns that same slice, and the map-typed Put stores the canonical
// encoding (sorted keys, typed values normalized as a decode would).
func TestBytesAreStoredOnceAndHandedOut(t *testing.T) {
	c := New(0)
	k := Key{ContentHash: "h1", Extractor: "keyword", Version: "1"}
	raw := fastjson.Raw(`{"list":["x"],"n":1}`)
	c.PutRaw(k, raw)
	first, _ := c.Get(k)
	second, _ := c.Get(k)
	if &first[0] != &raw[0] || &second[0] != &raw[0] {
		t.Fatal("Get returned a copy, not the stored bytes")
	}
	if n := testing.AllocsPerRun(100, func() { c.Get(k) }); n != 0 {
		t.Fatalf("a memory hit allocates %.0f times; it hands out bytes it already holds", n)
	}

	type point struct {
		Y int `json:"y"`
		X int `json:"x"`
	}
	c.Put(k, map[string]interface{}{"p": point{Y: 2, X: 1}, "big": int64(1<<53 + 1)})
	got, _ := c.Get(k)
	if want := `{"big":9007199254740992,"p":{"x":1,"y":2}}`; string(got) != want {
		t.Fatalf("Put stored %s, want %s", got, want)
	}

	// Only an object is a step's metadata: null, empty and scalars are
	// not cached.
	for _, bad := range []string{"", "null", "[1]", `"s"`} {
		k2 := Key{ContentHash: "h2", Extractor: "keyword", Version: "1"}
		c.PutRaw(k2, fastjson.Raw(bad))
		if _, ok := c.Get(k2); ok {
			t.Fatalf("PutRaw(%q) was cached", bad)
		}
	}
}

// fingerprintOf feeds GroupFingerprint a group given as path → hash, in
// the path order given.
func fingerprintOf(hashes map[string]string, paths ...string) (string, bool) {
	return GroupFingerprint(paths, func(p string) string { return hashes[p] })
}

func TestGroupFingerprint(t *testing.T) {
	if _, ok := fingerprintOf(nil); ok {
		t.Fatal("empty group fingerprinted")
	}
	if _, ok := fingerprintOf(map[string]string{"/a": "h1", "/b": ""}, "/a", "/b"); ok {
		t.Fatal("group with unhashed member fingerprinted")
	}
	fp1, ok := fingerprintOf(map[string]string{"/a": "h1", "/b": "h2"}, "/a", "/b")
	if !ok {
		t.Fatal("fingerprint failed")
	}
	unsorted := []string{"/b", "/a"}
	fp2, _ := GroupFingerprint(unsorted, func(p string) string { return map[string]string{"/a": "h1", "/b": "h2"}[p] })
	if fp1 != fp2 {
		t.Fatal("fingerprint depends on member order")
	}
	if unsorted[0] != "/b" {
		t.Fatal("fingerprinting reordered the caller's slice")
	}
	fp3, _ := fingerprintOf(map[string]string{"/a": "h1", "/b": "h3"}, "/a", "/b")
	if fp1 == fp3 {
		t.Fatal("content change did not change fingerprint")
	}
	fp4, _ := fingerprintOf(map[string]string{"/a": "h1", "/c": "h2"}, "/a", "/c")
	if fp1 == fp4 {
		t.Fatal("path change did not change fingerprint")
	}
}

// TestGroupFingerprintGolden pins the key bytes: the literals were
// computed by the map-hashing GroupFingerprint this one replaced, so
// the key is the same for the same group.
func TestGroupFingerprintGolden(t *testing.T) {
	vasp := map[string]string{
		"/data/exp-7/INCAR":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"/data/exp-7/OUTCAR": "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
		"/data/exp-7/POSCAR": "2c26b46b68ffc68ff99b453c1d30413413422d706483bfa0f98a5e886266e7ae",
	}
	for _, tc := range []struct {
		name   string
		hashes map[string]string
		paths  []string
		want   string
	}{
		{"one file", map[string]string{"/a": "h1"}, []string{"/a"},
			"b16555993b55bd3c86a2ced6a6e5f86e6fd270a3b671eaddc964a1afa6229962"},
		{"two files", map[string]string{"/a": "h1", "/b": "h2"}, []string{"/a", "/b"},
			"03665df6d50be6a8756890074716bc15a6c006fcd47723bb1ea52afccf412740"},
		{"unsorted with a repeat", map[string]string{"/a": "h1", "/b": "h2"}, []string{"/b", "/a", "/b"},
			"03665df6d50be6a8756890074716bc15a6c006fcd47723bb1ea52afccf412740"},
		{"real hashes", vasp, []string{"/data/exp-7/INCAR", "/data/exp-7/OUTCAR", "/data/exp-7/POSCAR"},
			"ce3c9e5f94e9413d7b1d67bb204eb96f993ad699aeef8d0de0dc04d7516cdeb7"},
		{"non-ascii and spaces", map[string]string{"/z/ünï.csv": "h", "/z/a b.csv": "h"}, []string{"/z/ünï.csv", "/z/a b.csv"},
			"59142e5c365e3e03a04aa0217f5d3d12b38032b36722585f2a897b4c8bace6f4"},
	} {
		if got, ok := fingerprintOf(tc.hashes, tc.paths...); !ok || got != tc.want {
			t.Errorf("%s: fingerprint = %s, %v; want %s", tc.name, got, ok, tc.want)
		}
	}
	// A group too large for the stack buffer hashes the same way.
	var paths []string
	for i := 0; i < 64; i++ {
		paths = append(paths, fmt.Sprintf("/big/file-%03d.dat", i))
	}
	got, _ := GroupFingerprint(paths, func(string) string { return vasp["/data/exp-7/INCAR"] })
	h := sha256.New()
	for _, p := range paths {
		fmt.Fprintf(h, "%s\x00%s\n", p, vasp["/data/exp-7/INCAR"])
	}
	if want := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("64-file group: fingerprint = %s, want %s", got, want)
	}
}

func TestGroupFingerprintAllocatesOnlyTheKey(t *testing.T) {
	paths := []string{"/data/exp-7/INCAR", "/data/exp-7/OUTCAR", "/data/exp-7/POSCAR"}
	hashOf := func(string) string { return "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" }
	if n := testing.AllocsPerRun(100, func() { GroupFingerprint(paths, hashOf) }); n > 1 {
		t.Fatalf("GroupFingerprint allocates %v times, want 1 (the key string)", n)
	}
}

func TestUnserializableMetadataNotCached(t *testing.T) {
	c := New(0)
	k := Key{ContentHash: "h1", Extractor: "keyword", Version: "1"}
	c.Put(k, map[string]interface{}{"bad": func() {}})
	if _, ok := c.Get(k); ok {
		t.Fatal("unserializable metadata was cached")
	}
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("entries = %d", n)
	}
}

func TestNilCacheIsSafe(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(Key{ContentHash: "h"}); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(Key{ContentHash: "h"}, md("a"))
	if c.Stats() != (Stats{}) {
		t.Fatal("nil cache reports state")
	}
}
