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
// windows of one slice.
func SingleFileGrouper(lib *extractors.Library) GroupingFunc {
	return func(dir string, files []store.FileInfo) []family.Group {
		out := make([]family.Group, len(files))
		paths := make([]string, len(files))
		for i, fi := range files {
			paths[i] = fi.Path
			out[i] = family.Group{ID: dir + "#f" + strconv.Itoa(i), Files: paths[i : i+1 : i+1]}
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

// vaspSet recognizes the VASP calculation artifacts that MaterialsIO
// processes as one logical group.
var vaspSet = map[string]bool{
	"INCAR": true, "POSCAR": true, "OUTCAR": true, "CONTCAR": true,
	"KPOINTS": true, "POTCAR": true,
}

// MatIOGrouper is the crawl-time grouping function the paper wrote for
// MaterialsIO: VASP artifacts in the same directory form one group
// assigned to the matio extractor (plus an ase group when a structure
// file is present), and every remaining file gets its own group.
func MatIOGrouper(lib *extractors.Library) GroupingFunc {
	single := SingleFileGrouper(lib)
	return func(dir string, files []store.FileInfo) []family.Group {
		vasp := family.Group{ID: dir + "#vasp", Extractor: "matio"}
		// The compute-heavy ASE analysis shares the structure files.
		ase := family.Group{ID: dir + "#ase", Extractor: "ase"}
		var rest []store.FileInfo
		for _, fi := range files {
			switch up := strings.ToUpper(fi.Name); {
			case up == "POSCAR" || up == "CONTCAR":
				ase.Files = append(ase.Files, fi.Path)
				fallthrough
			case vaspSet[up]:
				vasp.Files = append(vasp.Files, fi.Path)
			default:
				rest = append(rest, fi)
			}
		}
		var out []family.Group
		for _, g := range []family.Group{vasp, ase} {
			if len(g.Files) > 0 {
				out = append(out, g)
			}
		}
		if len(rest) > 0 {
			out = append(out, single(dir, rest)...)
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
