package family

import (
	"fmt"
	"math/rand"
	"sort"
)

// Graph is the file co-occurrence multigraph: one node per file, one edge
// per pair of files that appear together in a group. Edge multiplicity
// counts how many groups join the pair — cutting a high-multiplicity edge
// splits many groups and so costs many redundant transfers.
type Graph struct {
	Nodes []string
	// Edges are unordered node-index pairs with multiplicity.
	Edges []Edge
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
	idx := make(map[string]int, files)
	g := &Graph{}
	nodeOf := func(f string) int {
		if i, ok := idx[f]; ok {
			return i
		}
		i := len(g.Nodes)
		idx[f] = i
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
	byRoot := make(map[int][]int)
	for i := range g.Nodes {
		r := uf.find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
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
	inA := make(map[int]bool, len(a))
	for _, n := range a {
		inA[n] = true
	}
	inB := make(map[int]bool, len(b))
	for _, n := range b {
		inB[n] = true
	}
	w := 0
	for _, e := range g.Edges {
		if (inA[e.U] && inB[e.V]) || (inB[e.U] && inA[e.V]) {
			w += e.W
		}
	}
	return w
}

// MinTransfers implements Algorithm 1: build the multigraph, isolate
// connected components, and recursively min-cut any component larger than
// maxSize until all components fit, labelling each final component as a
// family. Groups are then assigned to the family holding the plurality of
// their files (files falling in other families are the residual redundant
// transfers).
//
// maxSize is the user-configurable maximum family size s > 0, applied
// best-effort: unsplittable components and files stranded by a cut (which
// fold back into the family owning their group, preserving group
// atomicity) may exceed it. rng drives the randomized cuts; pass a seeded
// rand.Rand for reproducibility.
func MinTransfers(groups []Group, maxSize int, rng *rand.Rand) []Family {
	return MinTransfersN(groups, maxSize, 1, rng)
}

// MinTransfersN is MinTransfers with multiple Karger trials per split:
// each oversized component is cut `trials` times and the cut severing the
// fewest group memberships wins. Karger's success probability per trial
// is Ω(1/n²), so extra trials trade crawl time for fewer redundant
// transfers — the ablation DESIGN.md calls out.
func MinTransfersN(groups []Group, maxSize, trials int, rng *rand.Rand) []Family {
	if maxSize < 1 {
		maxSize = 1
	}
	if trials < 1 {
		trials = 1
	}
	g := BuildGraph(groups)

	// Step 1: queue of connected components.
	pending := connectedComponents(g)
	var final [][]int

	// Step 2: iteratively run Karger's min-cut on oversized components.
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

	// Step 3: build families and assign groups by file plurality.
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
	nodeIdx := make(map[string]int, len(g.Nodes))
	for i, f := range g.Nodes {
		nodeIdx[f] = i
	}
	groupFam := make(map[string]int, len(groups)) // group ID -> family index
	for _, grp := range groups {
		votes := make(map[int]int)
		for _, f := range grp.Files {
			votes[famOf[nodeIdx[f]]]++
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
