package family

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// The min-transfers graph path as it was before it ran over a Packer's
// scratch: a map per graph, per Karger trial and per group vote, and a
// fresh slice for every component and cut. It is the reference
// FuzzPackMatchesReference holds the Packer to, and the names the older
// tests call (BuildGraph, cutWeight, cutToSize, assignGroups, disjoint,
// newUnionFind) are its own.

// refMinTransfersN is MinTransfersN before the Packer.
func refMinTransfersN(groups []Group, maxSize, trials int, rng *rand.Rand) []Family {
	if maxSize < 1 {
		maxSize = 1
	}
	if trials < 1 {
		trials = 1
	}
	if disjoint(groups, maxSize) {
		out := make([]Family, 0, len(groups))
		for i := range groups {
			if len(groups[i].Files) > 0 {
				out = append(out, Family{ID: fmt.Sprintf("fam-%d", len(out)),
					Files: slices.Clip(groups[i].Files), Groups: groups[i : i+1 : i+1]})
			}
		}
		return out
	}
	g := BuildGraph(groups)
	return assignGroups(g, cutToSize(g, maxSize, trials, rng), groups)
}

// Graph is the file co-occurrence multigraph: one node per file, one edge
// per pair of files that appear together in a group. Edge multiplicity
// counts how many groups join the pair — cutting a high-multiplicity edge
// splits many groups and so costs many redundant transfers.
type Graph struct {
	Nodes []string
	// Edges are unordered node-index pairs with multiplicity.
	Edges []Edge
	index map[string]int // each file's node index
}

// Edge joins node indices U and V with multiplicity W.
type Edge struct {
	U, V int
	W    int
}

// BuildGraph constructs the multigraph from groups. Files appearing in a
// group are pairwise connected (clique edges), so any two groups sharing
// a file land in the same connected component.
func BuildGraph(groups []Group) *Graph {
	files, pairs := 0, 0
	for i := range groups {
		n := len(groups[i].Files)
		files += n
		pairs += n * (n - 1) / 2
	}
	g := &Graph{index: make(map[string]int, files)}
	nodeOf := func(f string) int {
		if i, ok := g.index[f]; ok {
			return i
		}
		i := len(g.Nodes)
		g.index[f] = i
		g.Nodes = append(g.Nodes, f)
		return i
	}
	edgeW := make(map[[2]int]int, pairs)
	var members []int
	for _, grp := range groups {
		// Deduplicate within a group while preserving order; a group holds
		// a handful of files, so the scan beats a set.
		members = members[:0]
	file:
		for _, f := range grp.Files {
			i := nodeOf(f)
			for _, m := range members {
				if m == i {
					continue file
				}
			}
			members = append(members, i)
		}
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				u, v := members[a], members[b]
				if u > v {
					u, v = v, u
				}
				edgeW[[2]int{u, v}]++
			}
		}
	}
	for k, w := range edgeW {
		g.Edges = append(g.Edges, Edge{U: k[0], V: k[1], W: w})
	}
	// Deterministic edge order for reproducible seeded runs.
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i].U != g.Edges[j].U {
			return g.Edges[i].U < g.Edges[j].U
		}
		return g.Edges[i].V < g.Edges[j].V
	})
	return g
}

// unionFind is a path-compressing disjoint-set forest.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// union merges the sets of a and b, returning false if already joined.
func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	return true
}

// connectedComponents returns node-index sets of g's components.
func connectedComponents(g *Graph) [][]int {
	uf := newUnionFind(len(g.Nodes))
	for _, e := range g.Edges {
		uf.union(e.U, e.V)
	}
	// Components come in the order of their roots' indices.
	byRoot := make([][]int, len(g.Nodes))
	for i := range g.Nodes {
		r := uf.find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	return slices.DeleteFunc(byRoot, func(c []int) bool { return len(c) == 0 })
}

// kargerSplit runs one trial of Karger's randomized contraction on the
// subgraph induced by nodes, contracting weighted-random edges until two
// super-nodes remain, and returns the two node sets. Edge selection is
// weighted by multiplicity so heavy (many-group) edges are likelier to be
// contracted — i.e., survive inside one side of the cut.
func kargerSplit(g *Graph, nodes []int, rng *rand.Rand) ([]int, []int) {
	inSet := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		inSet[n] = true
	}
	var edges []Edge
	totalW := 0
	for _, e := range g.Edges {
		if inSet[e.U] && inSet[e.V] {
			edges = append(edges, e)
			totalW += e.W
		}
	}
	uf := newUnionFind(len(g.Nodes))
	remaining := len(nodes)
	for remaining > 2 && totalW > 0 {
		// Weighted random edge pick.
		r := rng.Intn(totalW)
		var chosen Edge
		for _, e := range edges {
			if uf.find(e.U) == uf.find(e.V) {
				continue
			}
			if r < e.W {
				chosen = e
				break
			}
			r -= e.W
		}
		if chosen.W == 0 {
			break // all live weight exhausted
		}
		if uf.union(chosen.U, chosen.V) {
			remaining--
		}
		// Recompute live total weight lazily every pass.
		totalW = 0
		for _, e := range edges {
			if uf.find(e.U) != uf.find(e.V) {
				totalW += e.W
			}
		}
	}
	// Partition nodes by super-node.
	var a, b []int
	rootA := -1
	for _, n := range nodes {
		r := uf.find(n)
		if rootA == -1 {
			rootA = r
		}
		if r == rootA {
			a = append(a, n)
		} else {
			b = append(b, n)
		}
	}
	if len(b) == 0 && len(a) > 1 {
		// Degenerate (e.g., no internal edges): split arbitrarily in half.
		mid := len(a) / 2
		a, b = a[:mid], a[mid:]
	}
	return a, b
}

// cutWeight sums the multiplicity of edges crossing the (a, b) node
// partition — the number of group memberships a cut severs.
func cutWeight(g *Graph, a, b []int) int {
	side := make([]uint8, len(g.Nodes)) // 1 for a, 2 for b
	for _, n := range a {
		side[n] = 1
	}
	for _, n := range b {
		side[n] = 2
	}
	w := 0
	for _, e := range g.Edges {
		if side[e.U]|side[e.V] == 3 {
			w += e.W
		}
	}
	return w
}

// disjoint reports whether no file appears twice, in two groups or in
// one, and no group is over maxSize: a graph that is cut nowhere. Files
// ascending across the groups, as a listing gives them, need no copy.
func disjoint(groups []Group, maxSize int) bool {
	ascending, n := true, 0
	var last string
	for i := range groups {
		files := groups[i].Files
		if len(files) > maxSize {
			return false
		}
		for _, f := range files {
			if n > 0 && f <= last {
				ascending = false
			}
			last = f
			n++
		}
	}
	if ascending {
		return true
	}
	all := make([]string, 0, n)
	for i := range groups {
		all = append(all, groups[i].Files...)
	}
	slices.Sort(all)
	return len(slices.Compact(all)) == n
}

// cutToSize is Algorithm 1's steps 1 and 2: queue g's connected
// components, and cut each oversized one with the best of trials Karger
// splits until every part fits maxSize or cannot be split.
func cutToSize(g *Graph, maxSize, trials int, rng *rand.Rand) [][]int {
	pending := connectedComponents(g)
	var final [][]int
	for len(pending) > 0 {
		comp := pending[0]
		pending = pending[1:]
		if len(comp) <= maxSize {
			final = append(final, comp)
			continue
		}
		var a, b []int
		bestW := -1
		for t := 0; t < trials; t++ {
			ta, tb := kargerSplit(g, comp, rng)
			if len(ta) == 0 || len(tb) == 0 {
				continue
			}
			if w := cutWeight(g, ta, tb); bestW == -1 || w < bestW {
				a, b, bestW = ta, tb, w
			}
		}
		if len(a) == 0 || len(b) == 0 {
			// Cannot split further; accept as-is to guarantee progress.
			final = append(final, comp)
			continue
		}
		pending = append(pending, a, b)
	}
	return final
}

// assignGroups is step 3: one family per final component, and each group
// assigned to the family holding the plurality of its files.
func assignGroups(g *Graph, final [][]int, groups []Group) []Family {
	famOf := make(map[int]int) // node index -> family index
	families := make([]Family, len(final))
	for fi, comp := range final {
		sort.Ints(comp)
		files := make([]string, 0, len(comp))
		for _, n := range comp {
			famOf[n] = fi
			files = append(files, g.Nodes[n])
		}
		families[fi] = Family{ID: fmt.Sprintf("fam-%d", fi), Files: files}
	}
	groupFam := make(map[string]int, len(groups)) // group ID -> family index
	for _, grp := range groups {
		votes := make(map[int]int)
		for _, f := range grp.Files {
			votes[famOf[g.index[f]]]++
		}
		best, bestVotes := 0, -1
		for fi, v := range votes {
			if v > bestVotes || (v == bestVotes && fi < best) {
				best, bestVotes = fi, v
			}
		}
		if bestVotes >= 0 {
			families[best].Groups = append(families[best].Groups, grp)
			groupFam[grp.ID] = best
		}
	}
	// A cut can strand files in a family whose every group voted
	// elsewhere, leaving it group-less. Fold each stranded file into the
	// family that won the first group referencing it, then drop the empty
	// shells: every file stays owned by exactly one surviving family, so
	// transfer planning never silently misses one.
	fileTarget := make(map[string]int, len(g.Nodes))
	for _, grp := range groups {
		fi, ok := groupFam[grp.ID]
		if !ok {
			continue
		}
		for _, f := range grp.Files {
			if _, claimed := fileTarget[f]; !claimed {
				fileTarget[f] = fi
			}
		}
	}
	for fi := range families {
		if len(families[fi].Groups) > 0 {
			continue
		}
		for _, file := range families[fi].Files {
			if ti, ok := fileTarget[file]; ok {
				families[ti].Files = append(families[ti].Files, file)
			}
		}
	}
	out := families[:0]
	for _, fam := range families {
		if len(fam.Groups) > 0 {
			out = append(out, fam)
		}
	}
	return out
}

// packInput derives groups from fuzz bytes: up to eight groups of zero to
// six files drawn from a pool of sixteen, so that files repeat within a
// group and across groups. IDs are unique, as Group's contract has them.
func packInput(data []byte) []Group {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0]) % 9
	data = data[1:]
	groups := make([]Group, 0, n)
	for i := 0; i < n && len(data) > 0; i++ {
		head := data[0]
		data = data[1:]
		g := Group{ID: fmt.Sprintf("g%d", i), Extractor: "keyword"}
		for size := int(head&7) % 7; size > 0 && len(data) > 0; size-- {
			g.Files = append(g.Files, fmt.Sprintf("/p/f%02d", data[0]%16))
			data = data[1:]
		}
		groups = append(groups, g)
	}
	return groups
}

// FuzzPackMatchesReference holds the Packer to the graph path it
// replaced: for any groups — overlapping, with repeats, empty — any
// size bound from 1 to 6, 1 to 3 trials and any seed, the same
// families (IDs, file order, group order) and the rng left at the same
// draw; Pack is the same without IDs. One Packer then packs a second
// input, and the first input's families must not have moved: no family
// may point into the scratch.
func FuzzPackMatchesReference(f *testing.F) {
	f.Add([]byte{3, 3, 0, 1, 2, 1, 2, 2, 3}, []byte{2, 2, 5, 6, 1, 7}, int64(1), uint8(1), uint8(0))                // a VASP-like overlap
	f.Add([]byte{4, 6, 1, 2, 3, 4, 5, 6, 6, 4, 5, 6, 7, 8, 9}, []byte{1, 3, 1, 2, 3}, int64(2), uint8(2), uint8(2)) // cut, and files stranded
	f.Add([]byte{5, 0x83, 1, 1, 2, 0x82, 2, 3, 0, 3, 4, 4, 4}, []byte{}, int64(3), uint8(0), uint8(1))              // shared IDs, an empty group, a repeat
	f.Add([]byte{8, 6, 0, 1, 2, 3, 4, 5, 6, 5, 6, 7, 8, 9, 10, 6, 10, 11, 12, 13, 14, 15}, []byte{3, 1, 9, 1, 8, 1, 7}, int64(-7), uint8(3), uint8(1))
	f.Add([]byte{2, 1, 5, 1, 5}, []byte{2, 2, 1, 2, 2, 2, 3}, int64(0), uint8(5), uint8(2)) // one file twice over two groups
	f.Fuzz(func(t *testing.T, first, second []byte, seed int64, maxSize, trials uint8) {
		size, tries := int(maxSize)%6+1, int(trials)%3+1
		var p Packer
		pack := func(groups []Group) []Family {
			refRng, rng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			want := refMinTransfersN(groups, size, tries, refRng)
			got := p.pack(groups, size, tries, rng, true)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("groups %v, maxSize %d, trials %d, seed %d:\nPacker    %#v\nreference %#v", groups, size, tries, seed, got, want)
			}
			if a, b := rng.Int63(), refRng.Int63(); a != b {
				t.Fatalf("groups %v, maxSize %d, trials %d, seed %d: the Packer and the reference left the rng at different draws", groups, size, tries, seed)
			}
			unnamed := p.Pack(groups, size, tries, rand.New(rand.NewSource(seed)))
			for i := range want {
				want[i].ID = ""
			}
			if !reflect.DeepEqual(unnamed, want) {
				t.Fatalf("groups %v: Pack =\n%#v\nwant the same families without IDs\n%#v", groups, unnamed, want)
			}
			return got
		}
		a := pack(packInput(first))
		pack(packInput(second))
		if want := refMinTransfersN(packInput(first), size, tries, rand.New(rand.NewSource(seed))); !reflect.DeepEqual(a, want) {
			t.Fatalf("packing a second input changed the first's families:\n%#v\nwant\n%#v", a, want)
		}
	})
}
