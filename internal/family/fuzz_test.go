package family

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// groupsFromBytes derives a deterministic group set from fuzz input: each
// group draws 1–4 files from a 16-file pool, so groups overlap often and
// the co-occurrence graph gets interesting components.
func groupsFromBytes(data []byte) []Group {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0])%8 + 1
	pos := 1
	next := func() byte {
		if pos >= len(data) {
			pos = 1 // wrap, keeping the derivation total
		}
		if len(data) <= 1 {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	groups := make([]Group, 0, n)
	for i := 0; i < n; i++ {
		nf := int(next())%4 + 1
		seen := map[string]bool{}
		var files []string
		for j := 0; j < nf; j++ {
			f := fmt.Sprintf("/pool/f%02d", int(next())%16)
			if !seen[f] {
				seen[f] = true
				files = append(files, f)
			}
		}
		groups = append(groups, Group{
			ID:        fmt.Sprintf("g%d", i),
			Files:     files,
			Extractor: "keyword",
		})
	}
	return groups
}

// FuzzMinTransfers checks the packaging invariants of the min-cut family
// builder for arbitrary group shapes: same-seed determinism, every group
// in exactly one family, file ownership unique across families, and no
// empty families.
func FuzzMinTransfers(f *testing.F) {
	f.Add([]byte{3, 2, 0, 1, 3, 1, 4, 2, 5}, int64(1), 4)
	f.Add([]byte{8, 1, 1, 1, 1, 1, 1}, int64(7), 2)
	f.Add([]byte{1, 0}, int64(0), 1)
	f.Add([]byte{7, 200, 13, 99, 4, 4, 4, 250, 9}, int64(42), 3)
	f.Fuzz(func(t *testing.T, data []byte, seed int64, maxSize int) {
		groups := groupsFromBytes(data)
		if maxSize < 0 {
			maxSize = -maxSize
		}
		maxSize = maxSize%8 + 1

		run := func() []Family {
			return MinTransfersN(groups, maxSize, 3, rand.New(rand.NewSource(seed)))
		}
		fams := run()

		// Determinism: the same seed reproduces the same packaging.
		if again := run(); !reflect.DeepEqual(fams, again) {
			t.Fatalf("MinTransfersN not deterministic for seed %d", seed)
		}

		// Every group lands in exactly one family.
		assigned := map[string]int{}
		for _, fam := range fams {
			if len(fam.Groups) == 0 {
				t.Fatalf("family %s has no groups", fam.ID)
			}
			for _, g := range fam.Groups {
				assigned[g.ID]++
			}
		}
		for _, g := range groups {
			if assigned[g.ID] != 1 {
				t.Fatalf("group %s assigned to %d families, want 1", g.ID, assigned[g.ID])
			}
		}
		if len(assigned) != len(groups) {
			t.Fatalf("assigned %d distinct groups, input had %d", len(assigned), len(groups))
		}

		// File ownership is a partition: no file is listed by two
		// families, and no family lists a file twice.
		owner := map[string]string{}
		for _, fam := range fams {
			seen := map[string]bool{}
			for _, file := range fam.Files {
				if seen[file] {
					t.Fatalf("family %s lists %s twice", fam.ID, file)
				}
				seen[file] = true
				if prev, ok := owner[file]; ok {
					t.Fatalf("file %s owned by both %s and %s", file, prev, fam.ID)
				}
				owner[file] = fam.ID
			}
		}

		// Every input file is owned by some surviving family, unless its
		// every group voted into a family that kept the file elsewhere —
		// ownership loss would mean transfer planning misses the file.
		// (Files of dropped, group-less families are the only exception.)
		for _, g := range groups {
			for _, file := range g.Files {
				if _, ok := owner[file]; !ok {
					t.Fatalf("file %s (group %s) owned by no family", file, g.ID)
				}
			}
		}
	})
}

// groupsWithRepeats derives groups whose shapes reach both of
// MinTransfersN's paths: empty groups, groups wider than the size bound,
// a file named twice in one group, files shared between groups, and
// disjoint groups whose files ascend (the listing's shape) or do not.
// Each file byte either names a new file or repeats one named before.
func groupsWithRepeats(data []byte) []Group {
	if len(data) == 0 {
		return nil
	}
	descending := data[0]&0x80 != 0
	n := int(data[0]) % 6
	data = data[1:]
	var named []string
	groups := make([]Group, 0, n)
	for i := 0; i < n && len(data) > 0; i++ {
		size := int(data[0]) % 6
		data = data[1:]
		g := Group{ID: fmt.Sprintf("g%d", i), Extractor: "keyword"}
		for ; size > 0 && len(data) > 0; size-- {
			b := data[0]
			data = data[1:]
			if b&1 == 0 && len(named) > 0 {
				g.Files = append(g.Files, named[int(b>>1)%len(named)])
				continue
			}
			k := len(named)
			if descending {
				k = 99 - k
			}
			f := fmt.Sprintf("/d/f%02d", k)
			named = append(named, f)
			g.Files = append(g.Files, f)
		}
		groups = append(groups, g)
	}
	return groups
}

// FuzzMinTransfersDirectMatchesGraph holds MinTransfersN's direct answer
// for disjoint groups to the graph path it skips: the same families, file
// order and group order, and no more draws from the rng than the graph
// path takes (none, as it cuts nothing). Every other input takes the
// graph path itself.
func FuzzMinTransfersDirectMatchesGraph(f *testing.F) {
	f.Add([]byte{3, 2, 1, 3, 1, 5, 0, 1, 7}, int64(1), 4) // disjoint, ascending, one empty group
	f.Add([]byte{0x83, 3, 1, 3, 5, 2, 7, 9}, int64(2), 4) // disjoint, descending
	f.Add([]byte{2, 3, 1, 0, 3, 1, 1}, int64(3), 4)       // a file twice in one group
	f.Add([]byte{2, 2, 1, 3, 2, 0, 5}, int64(4), 4)       // a file shared by two groups
	f.Add([]byte{1, 5, 1, 3, 5, 7, 9}, int64(5), 2)       // one group over the bound
	f.Add([]byte{5, 0, 0, 1, 1, 0, 0}, int64(6), 1)       // empty groups around one file
	f.Fuzz(func(t *testing.T, data []byte, seed int64, maxSize int) {
		groups := groupsWithRepeats(data)
		if maxSize < 0 {
			maxSize = -maxSize
		}
		maxSize = maxSize%6 + 1

		graphRng := rand.New(rand.NewSource(seed))
		g := BuildGraph(groups)
		want := assignGroups(g, cutToSize(g, maxSize, 2, graphRng), groups)

		rng := rand.New(rand.NewSource(seed))
		got := MinTransfersN(groups, maxSize, 2, rng)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("groups %v, maxSize %d: MinTransfersN =\n%#v\ngraph path =\n%#v", groups, maxSize, got, want)
		}
		if disjoint(groups, maxSize) {
			if a, b := rng.Int63(), graphRng.Int63(); a != b {
				t.Fatalf("groups %v: the direct answer and the graph path left the rng at different draws", groups)
			}
		}
	})
}
