package crawler

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/store"
)

// annotate sets a group's extractor: the first the library offers for
// sample, or keyword for untyped files, which default to free text.
func annotate(g *family.Group, lib *extractors.Library, sample store.FileInfo) {
	g.Extractor = lib.Candidate(sample)
	if g.Extractor == "" {
		g.Extractor = "keyword"
	}
}

// SingleFileGrouper places every file in its own group — the most
// granular grouping the paper supports. The groups' file lists are
// windows of one slice, and their IDs substrings of one string.
func SingleFileGrouper(lib *extractors.Library) GroupingFunc {
	return func(dir string, files []store.FileInfo) []family.Group {
		out := make([]family.Group, len(files))
		paths := make([]string, len(files))
		ids := newIDSheet([]string{dir}, "#f", len(files), nil)
		for i, fi := range files {
			paths[i] = fi.Path
			out[i] = family.Group{ID: ids.number(i), Files: paths[i : i+1 : i+1]}
			annotate(&out[i], lib, fi)
		}
		return out
	}
}

// ExtensionGrouper groups the files of a directory that share an
// extension, so (for example) all CSV shards of a dataset move and
// extract together.
func ExtensionGrouper(lib *extractors.Library) GroupingFunc {
	key := func(fi store.FileInfo) string {
		if fi.Extension == "" {
			return "<none>"
		}
		return fi.Extension
	}
	return func(dir string, files []store.FileInfo) []family.Group {
		byExt := slices.Clone(files) // the crawler keeps files in path order
		slices.SortStableFunc(byExt, func(a, b store.FileInfo) int { return strings.Compare(key(a), key(b)) })
		var out []family.Group
		for i := 0; i < len(byExt); {
			g := family.Group{ID: dir + "#ext:" + key(byExt[i])}
			annotate(&g, lib, byExt[i])
			for e := key(byExt[i]); i < len(byExt) && key(byExt[i]) == e; i++ {
				g.Files = append(g.Files, byExt[i].Path)
			}
			out = append(out, g)
		}
		return out
	}
}

// DirectoryGrouper packs an entire directory into a single group — the
// broadest grouping the paper supports.
func DirectoryGrouper(lib *extractors.Library) GroupingFunc {
	return func(dir string, files []store.FileInfo) []family.Group {
		g := family.Group{ID: dir + "#dir"}
		for _, fi := range files {
			g.Files = append(g.Files, fi.Path)
		}
		annotate(&g, lib, files[0])
		return []family.Group{g}
	}
}

// matioTags end the IDs of MatIOGrouper's VASP and structure groups.
var matioTags = []string{"#vasp", "#ase"}

// MatIOGrouper is the crawl-time grouping function the paper wrote for
// MaterialsIO: VASP artifacts in the same directory form one group
// assigned to the matio extractor (plus an ase group when a structure
// file is present), and every remaining file gets its own group. A first
// pass over the listing counts each kind, so that the groups, their file
// lists and their IDs take one array, one array and one string.
func MatIOGrouper(lib *extractors.Library) GroupingFunc {
	return func(dir string, files []store.FileInfo) []family.Group {
		nVASP, nASE := 0, 0
		for _, fi := range files {
			switch extractors.VASPArtifact(fi.Name) {
			case "":
			case "POSCAR", "CONTCAR":
				nASE++
				nVASP++
			default:
				nVASP++
			}
		}
		k := min(nVASP, 1) + min(nASE, 1) // the VASP group, then the structure group, as present
		nRest := len(files) - nVASP
		ids := newIDSheet([]string{dir}, "#f", nRest, matioTags[:k])
		out := make([]family.Group, k+nRest)
		paths := make([]string, nVASP+nASE+nRest)
		vasp, ase, rest := paths[:0:nVASP], paths[nVASP:nVASP:nVASP+nASE], paths[nVASP+nASE:]
		r := 0
		for _, fi := range files {
			switch extractors.VASPArtifact(fi.Name) {
			case "":
				rest[r] = fi.Path
				g := &out[k+r]
				*g = family.Group{ID: ids.number(r), Files: rest[r : r+1 : r+1]}
				annotate(g, lib, fi)
				r++
			case "POSCAR", "CONTCAR":
				ase = append(ase, fi.Path)
				fallthrough
			default:
				vasp = append(vasp, fi.Path)
			}
		}
		if nVASP > 0 {
			out[0] = family.Group{ID: ids.tag(matioTags[0]), Files: vasp, Extractor: "matio"}
		}
		if nASE > 0 {
			// The compute-heavy ASE analysis shares the structure files.
			out[1] = family.Group{ID: ids.tag(matioTags[1]), Files: ase, Extractor: "ase"}
		}
		return out
	}
}

// GrouperByName resolves a grouper's name — a CLI flag, a REST request
// field, a journaled job spec — to the grouping function over lib. The
// empty name is the single-file grouper.
func GrouperByName(name string, lib *extractors.Library) (GroupingFunc, error) {
	switch name {
	case "", "single":
		return SingleFileGrouper(lib), nil
	case "extension":
		return ExtensionGrouper(lib), nil
	case "directory":
		return DirectoryGrouper(lib), nil
	case "matio":
		return MatIOGrouper(lib), nil
	default:
		return nil, fmt.Errorf("unknown grouper %q", name)
	}
}

// idSheet lays a directory's IDs end to end in one string, so that
// naming its groups or families costs one allocation and every ID is a
// substring of it. Each ID is the stem followed by the lead and a
// number, or by a tag; they are taken off in the order they were written.
type idSheet struct {
	rest       string
	stem, lead int // their lengths
}

// newIDSheet writes stem+lead+i for each i in [0, n), then stem+tag for
// each of tags, where stem is its parts joined.
func newIDSheet(stem []string, lead string, n int, tags []string) idSheet {
	s := idSheet{lead: len(lead)}
	for _, part := range stem {
		s.stem += len(part)
	}
	size := (n+len(tags))*s.stem + n*len(lead)
	for i := 0; i < n; i++ {
		size += digits(i)
	}
	for _, t := range tags {
		size += len(t)
	}
	var b strings.Builder
	b.Grow(size)
	var num [20]byte
	for k := 0; k < n+len(tags); k++ {
		for _, part := range stem {
			b.WriteString(part)
		}
		if k < n {
			b.WriteString(lead)
			b.Write(strconv.AppendInt(num[:0], int64(k), 10))
		} else {
			b.WriteString(tags[k-n])
		}
	}
	s.rest = b.String()
	return s
}

// tag takes the next ID, written with tag t.
func (s *idSheet) tag(t string) string { return s.take(s.stem + len(t)) }

// number takes the next ID, written with number i.
func (s *idSheet) number(i int) string { return s.take(s.stem + s.lead + digits(i)) }

func (s *idSheet) take(n int) string {
	id := s.rest[:n]
	s.rest = s.rest[n:]
	return id
}

// digits is the length of strconv.Itoa(i) for i >= 0.
func digits(i int) int {
	n := 1
	for ; i >= 10; i /= 10 {
		n++
	}
	return n
}
