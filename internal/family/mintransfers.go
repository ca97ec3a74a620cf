package family

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"
	"strings"
)

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
// transfers — the ablation DESIGN.md calls out. Groups that share no
// file and each fit maxSize — every group of the single, extension and
// directory groupers — are answered without building the graph. Families
// are named "fam-N"; a caller that packs many directories and names
// families itself keeps a Packer instead.
func MinTransfersN(groups []Group, maxSize, trials int, rng *rand.Rand) []Family {
	var p Packer
	return p.pack(groups, maxSize, trials, rng, true)
}

// Packer runs MinTransfersN over scratch buffers it keeps from one Pack
// to the next, so that once they have grown, packing a directory
// allocates the families it returns and nothing else. No family points
// into the scratch: a family's Files and Groups are windows of arrays
// made for the call that returned it. The zero value is ready; a Packer
// is for one goroutine.
type Packer struct {
	refs     []string // every group's files, end to end
	order    []int    // positions in refs, in file order
	refNode  []int    // the node of each position in refs
	nodes    []string // node → file, in order of first appearance
	members  []int    // one group's nodes, each once
	edges    []edge   // the co-occurrence multigraph, sorted by (u, v)
	sub      []edge   // the edges inside one Karger trial's component
	forest   forest
	mark     []uint8 // per node: inside the trial's component, or a cut's side
	parts    []int   // components and cut sides, node lists end to end
	pending  []span  // parts still to fit maxSize, first in first out
	final    []span  // parts that fit, or cannot be cut
	famOf    []int   // node → final part
	votes    []int   // per final part, one group's files in it
	perPart  []int   // per final part: its groups, files, and their offsets
	groupFam []int   // group → family, -1 for an empty group
	target   []int   // node → the family its file falls to when stranded
}

// edge joins nodes u < v with multiplicity w: how many groups join them.
type edge struct{ u, v, w int }

// span is the node list parts[lo:hi].
type span struct{ lo, hi int }

// Pack is MinTransfersN on p's scratch, and names no family: a caller
// that names them itself, as the crawler does by store and directory,
// builds no "fam-N" it would overwrite.
func (p *Packer) Pack(groups []Group, maxSize, trials int, rng *rand.Rand) []Family {
	return p.pack(groups, maxSize, trials, rng, false)
}

func (p *Packer) pack(groups []Group, maxSize, trials int, rng *rand.Rand, named bool) []Family {
	if maxSize < 1 {
		maxSize = 1
	}
	if trials < 1 {
		trials = 1
	}
	if !p.disjoint(groups, maxSize) {
		p.build(groups)
		p.cutToSize(maxSize, trials, rng)
		return p.assign(groups, named)
	}
	// What the graph path gives, with no draw from rng as it cuts
	// nothing: one family per non-empty group, in group order, sharing
	// the group's backing arrays.
	out := make([]Family, 0, len(groups))
	for i := range groups {
		if len(groups[i].Files) > 0 {
			fam := Family{Files: slices.Clip(groups[i].Files), Groups: groups[i : i+1 : i+1]}
			if named {
				fam.ID = "fam-" + strconv.Itoa(len(out))
			}
			out = append(out, fam)
		}
	}
	return out
}

// disjoint reports whether no file appears twice, in two groups or in
// one, and no group is over maxSize: a graph that is cut nowhere. Files
// ascending across the groups, as a listing gives them, need no sort.
func (p *Packer) disjoint(groups []Group, maxSize int) bool {
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
	p.refs = p.refs[:0]
	for i := range groups {
		p.refs = append(p.refs, groups[i].Files...)
	}
	slices.Sort(p.refs)
	return len(slices.Compact(p.refs)) == n
}

// build lays out the file co-occurrence multigraph of groups: one node
// per file, numbered in the order files first appear, and one edge per
// pair of files that share a group, weighted by how many groups join
// them — cutting a heavy edge splits many groups and so costs many
// redundant transfers. A file named twice in a group joins it once.
func (p *Packer) build(groups []Group) {
	p.refs = p.refs[:0]
	for i := range groups {
		p.refs = append(p.refs, groups[i].Files...)
	}
	refs := p.refs
	// Each position takes the node of its file's first position: sort the
	// positions by file, then number the first positions in order.
	p.order = p.order[:0]
	for k := range refs {
		p.order = append(p.order, k)
	}
	slices.SortFunc(p.order, func(a, b int) int {
		if c := strings.Compare(refs[a], refs[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	p.refNode = zeroed(p.refNode, len(refs))
	first := 0
	for i, k := range p.order {
		if i == 0 || refs[k] != refs[p.order[i-1]] {
			first = k
		}
		p.refNode[k] = first
	}
	p.nodes = p.nodes[:0]
	for k, first := range p.refNode {
		if first == k {
			p.refNode[k] = len(p.nodes)
			p.nodes = append(p.nodes, refs[k])
		} else {
			p.refNode[k] = p.refNode[first]
		}
	}
	// One unit edge per pair in a group, then pairs merged in (u, v) order.
	p.edges = p.edges[:0]
	at := 0
	for i := range groups {
		nodes := p.refNode[at : at+len(groups[i].Files)]
		at += len(nodes)
		// A group holds a handful of files, so the scan beats a set.
		m := p.members[:0]
	file:
		for _, n := range nodes {
			for _, seen := range m {
				if seen == n {
					continue file
				}
			}
			m = append(m, n)
		}
		p.members = m
		for a := 0; a < len(m); a++ {
			for b := a + 1; b < len(m); b++ {
				u, v := m[a], m[b]
				if u > v {
					u, v = v, u
				}
				p.edges = append(p.edges, edge{u: u, v: v, w: 1})
			}
		}
	}
	slices.SortFunc(p.edges, func(a, b edge) int {
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	merged := p.edges[:0]
	for _, e := range p.edges {
		if n := len(merged); n > 0 && merged[n-1].u == e.u && merged[n-1].v == e.v {
			merged[n-1].w += e.w
			continue
		}
		merged = append(merged, e)
	}
	p.edges = merged
	p.mark = zeroed(p.mark, len(p.nodes))
}

// cutToSize is Algorithm 1's steps 1 and 2: queue the graph's connected
// components, and cut each oversized one with the best of trials Karger
// splits until every part fits maxSize or cannot be split.
func (p *Packer) cutToSize(maxSize, trials int, rng *rand.Rand) {
	p.components()
	p.final = p.final[:0]
	for next := 0; next < len(p.pending); next++ {
		comp := p.pending[next]
		if comp.hi-comp.lo <= maxSize {
			p.final = append(p.final, comp)
			continue
		}
		var a, b span
		bestW := -1
		for t := 0; t < trials; t++ {
			ta, tb := p.kargerSplit(comp, rng)
			if ta.lo == ta.hi || tb.lo == tb.hi {
				continue
			}
			if w := p.cutWeight(ta, tb); bestW == -1 || w < bestW {
				a, b, bestW = ta, tb, w
			}
		}
		if bestW == -1 {
			// Cannot split further; accept as-is to guarantee progress.
			p.final = append(p.final, comp)
			continue
		}
		p.pending = append(p.pending, a, b)
	}
}

// components queues the graph's connected components in the order of
// their roots' node indices, each listing its nodes ascending.
func (p *Packer) components() {
	n := len(p.nodes)
	f := &p.forest
	f.reset(n)
	for _, e := range p.edges {
		f.union(e.u, e.v)
	}
	// Lay the components out end to end in root order: a root's size is
	// its component's, and next[r] is where its next node goes (famOf's
	// array, which assign fills later).
	p.famOf = zeroed(p.famOf, n)
	next := p.famOf
	p.pending = p.pending[:0]
	at := 0
	for r := 0; r < n; r++ {
		if f.parent[r] == r {
			next[r] = at
			p.pending = append(p.pending, span{at, at + f.size[r]})
			at += f.size[r]
		}
	}
	p.parts = zeroed(p.parts, n)
	for i := 0; i < n; i++ {
		r := f.find(i)
		p.parts[next[r]] = i
		next[r]++
	}
}

// kargerSplit runs one trial of Karger's randomized contraction on the
// component comp, contracting weighted-random edges until two
// super-nodes remain, and appends their node lists to parts: the first
// node's side, then the other. Edge selection is weighted by
// multiplicity so heavy (many-group) edges are likelier to be contracted
// — i.e., survive inside one side of the cut.
func (p *Packer) kargerSplit(comp span, rng *rand.Rand) (span, span) {
	nodes := p.parts[comp.lo:comp.hi]
	for _, n := range nodes {
		p.mark[n] = 1
	}
	sub := p.sub[:0]
	totalW := 0
	for _, e := range p.edges {
		if p.mark[e.u] == 1 && p.mark[e.v] == 1 {
			sub = append(sub, e)
			totalW += e.w
		}
	}
	p.sub = sub
	for _, n := range nodes {
		p.mark[n] = 0
	}
	uf := &p.forest
	uf.reset(len(p.nodes))
	remaining := len(nodes)
	for remaining > 2 && totalW > 0 {
		// Weighted random edge pick.
		r := rng.Intn(totalW)
		var chosen edge
		for _, e := range sub {
			if uf.find(e.u) == uf.find(e.v) {
				continue
			}
			if r < e.w {
				chosen = e
				break
			}
			r -= e.w
		}
		if chosen.w == 0 {
			break // all live weight exhausted
		}
		if uf.union(chosen.u, chosen.v) {
			remaining--
		}
		// Recompute live total weight lazily every pass.
		totalW = 0
		for _, e := range sub {
			if uf.find(e.u) != uf.find(e.v) {
				totalW += e.w
			}
		}
	}
	// nodes stays readable however parts grows: append copies it.
	rootA := uf.find(nodes[0])
	lo := len(p.parts)
	for _, n := range nodes {
		if uf.find(n) == rootA {
			p.parts = append(p.parts, n)
		}
	}
	mid := len(p.parts)
	for _, n := range nodes {
		if uf.find(n) != rootA {
			p.parts = append(p.parts, n)
		}
	}
	if hi := len(p.parts); mid == hi && hi-lo > 1 {
		// Degenerate (e.g., no internal edges): split arbitrarily in half.
		mid = lo + (hi-lo)/2
	}
	return span{lo, mid}, span{mid, len(p.parts)}
}

// cutWeight sums the multiplicity of edges crossing the (a, b) node
// partition — the number of group memberships a cut severs.
func (p *Packer) cutWeight(a, b span) int {
	for _, n := range p.parts[a.lo:a.hi] {
		p.mark[n] = 1
	}
	for _, n := range p.parts[b.lo:b.hi] {
		p.mark[n] = 2
	}
	w := 0
	for _, e := range p.edges {
		if p.mark[e.u]|p.mark[e.v] == 3 {
			w += e.w
		}
	}
	for _, n := range p.parts[a.lo:b.hi] { // a Karger trial's sides are adjacent
		p.mark[n] = 0
	}
	return w
}

// assign is step 3: one family per final part, and each group assigned
// to the family holding the plurality of its files, the lowest-numbered
// on a tie. A cut can strand files in a part whose every group voted
// elsewhere, leaving it group-less: each stranded file folds into the
// family that won the first group naming it, then the empty shells drop,
// so every file stays owned by exactly one surviving family and transfer
// planning never silently misses one.
func (p *Packer) assign(groups []Group, named bool) []Family {
	p.vote(groups)
	groupsIn, filesIn, _, _ := p.perPartCounts()
	for fi, part := range p.final {
		if groupsIn[fi] > 0 {
			filesIn[fi] = part.hi - part.lo
		}
	}
	stranded := slices.Contains(groupsIn, 0)
	if stranded {
		p.strand(groups)
	}
	return p.layOut(groups, stranded, named)
}

// perPartCounts views perPart as each final part's groups and files, and
// where its windows of them start.
func (p *Packer) perPartCounts() (groupsIn, filesIn, groupAt, fileAt []int) {
	n := len(p.final)
	return p.perPart[:n], p.perPart[n : 2*n], p.perPart[2*n : 3*n], p.perPart[3*n:]
}

// vote sets famOf for every node, and groupFam and the group count of
// every part.
func (p *Packer) vote(groups []Group) {
	nParts := len(p.final)
	p.famOf = zeroed(p.famOf, len(p.nodes))
	for fi, part := range p.final {
		nodes := p.parts[part.lo:part.hi]
		slices.Sort(nodes)
		for _, n := range nodes {
			p.famOf[n] = fi
		}
	}
	p.perPart = zeroed(p.perPart, 4*nParts)
	groupsIn, _, _, _ := p.perPartCounts()
	p.votes = zeroed(p.votes, nParts)
	p.groupFam = zeroed(p.groupFam, len(groups))
	at := 0
	for gi := range groups {
		nodes := p.refNode[at : at+len(groups[gi].Files)]
		at += len(nodes)
		for _, n := range nodes {
			p.votes[p.famOf[n]]++
		}
		best, bestVotes := -1, 0
		for _, n := range nodes {
			if fi, v := p.famOf[n], p.votes[p.famOf[n]]; v > bestVotes || (v == bestVotes && fi < best) {
				best, bestVotes = fi, v
			}
		}
		for _, n := range nodes {
			p.votes[p.famOf[n]] = 0
		}
		p.groupFam[gi] = best // -1: an empty group, which no family takes
		if best >= 0 {
			groupsIn[best]++
		}
	}
}

// strand sets target for every node and counts each stranded file in the
// family it folds into.
func (p *Packer) strand(groups []Group) {
	groupsIn, filesIn, _, _ := p.perPartCounts()
	p.target = p.target[:0]
	for range p.nodes {
		p.target = append(p.target, -1)
	}
	at := 0
	for gi, fi := range p.groupFam {
		nodes := p.refNode[at : at+len(groups[gi].Files)]
		at += len(nodes)
		for _, n := range nodes {
			if p.target[n] < 0 {
				p.target[n] = fi
			}
		}
	}
	for fi, part := range p.final {
		if groupsIn[fi] == 0 {
			for _, n := range p.parts[part.lo:part.hi] {
				if t := p.target[n]; t >= 0 {
					filesIn[t]++
				}
			}
		}
	}
}

// layOut makes the families: every family's files, its part's and then
// those stranded into it, and its groups, in group order, are windows of
// one array each, laid out in part order.
func (p *Packer) layOut(groups []Group, stranded, named bool) []Family {
	groupsIn, filesIn, groupAt, fileAt := p.perPartCounts()
	nFams, nFiles, nGroups := 0, 0, 0
	for fi := range p.final {
		if groupsIn[fi] > 0 {
			nFams++
			groupAt[fi], fileAt[fi] = nGroups, nFiles
			nGroups += groupsIn[fi]
			nFiles += filesIn[fi]
		}
	}
	out := make([]Family, 0, nFams)
	files := make([]string, nFiles)
	members := make([]Group, nGroups)
	for fi, part := range p.final {
		if groupsIn[fi] > 0 {
			for _, n := range p.parts[part.lo:part.hi] {
				files[fileAt[fi]] = p.nodes[n]
				fileAt[fi]++
			}
		}
	}
	if stranded {
		for fi, part := range p.final {
			if groupsIn[fi] == 0 {
				for _, n := range p.parts[part.lo:part.hi] {
					if t := p.target[n]; t >= 0 {
						files[fileAt[t]] = p.nodes[n]
						fileAt[t]++
					}
				}
			}
		}
	}
	for gi, fi := range p.groupFam {
		if fi >= 0 {
			members[groupAt[fi]] = groups[gi]
			groupAt[fi]++
		}
	}
	// fileAt and groupAt now end each family's windows.
	for fi := range p.final {
		if groupsIn[fi] > 0 {
			fam := Family{
				Files:  files[fileAt[fi]-filesIn[fi] : fileAt[fi] : fileAt[fi]],
				Groups: members[groupAt[fi]-groupsIn[fi] : groupAt[fi] : groupAt[fi]],
			}
			if named {
				fam.ID = "fam-" + strconv.Itoa(fi)
			}
			out = append(out, fam)
		}
	}
	return out
}

// forest is a path-compressing disjoint-set forest, union by size.
type forest struct {
	parent []int
	size   []int
}

// reset makes f n singleton sets, reusing its arrays.
func (f *forest) reset(n int) {
	f.parent, f.size = f.parent[:0], f.size[:0]
	for i := 0; i < n; i++ {
		f.parent = append(f.parent, i)
		f.size = append(f.size, 1)
	}
}

func (f *forest) find(x int) int {
	for f.parent[x] != x {
		f.parent[x] = f.parent[f.parent[x]]
		x = f.parent[x]
	}
	return x
}

// union merges the sets of a and b, returning false if already joined.
func (f *forest) union(a, b int) bool {
	ra, rb := f.find(a), f.find(b)
	if ra == rb {
		return false
	}
	if f.size[ra] < f.size[rb] {
		ra, rb = rb, ra
	}
	f.parent[rb] = ra
	f.size[ra] += f.size[rb]
	return true
}

// zeroed returns s resized to n zero values, reusing its array when it
// can.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
