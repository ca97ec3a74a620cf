package crawler

import (
	"fmt"
	"sort"
	"strings"

	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/store"
)

// annotate fills a group's extractor and candidate list from the library.
// The first candidate becomes the initial extractor; the rest ride along
// in group metadata for the dynamic plan.
func annotate(g *family.Group, lib *extractors.Library, sample store.FileInfo) {
	candidates := lib.CandidatesFor(sample)
	if len(candidates) == 0 {
		candidates = []string{"keyword"} // untyped files default to free text
	}
	g.Extractor = candidates[0]
	if g.Metadata == nil {
		g.Metadata = make(map[string]interface{})
	}
	g.Metadata["candidates"] = candidates
}

// SingleFileGrouper places every file in its own group — the most
// granular grouping the paper supports.
func SingleFileGrouper(lib *extractors.Library) GroupingFunc {
	return func(dir string, files []store.FileInfo) []family.Group {
		out := make([]family.Group, 0, len(files))
		for i, fi := range files {
			g := family.Group{
				ID:    fmt.Sprintf("%s#f%d", dir, i),
				Files: []string{fi.Path},
			}
			annotate(&g, lib, fi)
			out = append(out, g)
		}
		return out
	}
}

// ExtensionGrouper groups the files of a directory that share an
// extension, so (for example) all CSV shards of a dataset move and
// extract together.
func ExtensionGrouper(lib *extractors.Library) GroupingFunc {
	return func(dir string, files []store.FileInfo) []family.Group {
		byExt := make(map[string][]store.FileInfo)
		for _, fi := range files {
			key := fi.Extension
			if key == "" {
				key = "<none>"
			}
			byExt[key] = append(byExt[key], fi)
		}
		exts := make([]string, 0, len(byExt))
		for e := range byExt {
			exts = append(exts, e)
		}
		sort.Strings(exts)
		var out []family.Group
		for _, e := range exts {
			members := byExt[e]
			g := family.Group{ID: fmt.Sprintf("%s#ext:%s", dir, e)}
			for _, fi := range members {
				g.Files = append(g.Files, fi.Path)
			}
			annotate(&g, lib, members[0])
			out = append(out, g)
		}
		return out
	}
}

// DirectoryGrouper packs an entire directory into a single group — the
// broadest grouping the paper supports.
func DirectoryGrouper(lib *extractors.Library) GroupingFunc {
	return func(dir string, files []store.FileInfo) []family.Group {
		g := family.Group{ID: fmt.Sprintf("%s#dir", dir)}
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
		var vasp []store.FileInfo
		var rest []store.FileInfo
		hasStructure := false
		for _, fi := range files {
			if vaspSet[strings.ToUpper(fi.Name)] {
				vasp = append(vasp, fi)
				up := strings.ToUpper(fi.Name)
				if up == "POSCAR" || up == "CONTCAR" {
					hasStructure = true
				}
			} else {
				rest = append(rest, fi)
			}
		}
		var out []family.Group
		if len(vasp) > 0 {
			g := family.Group{
				ID:        fmt.Sprintf("%s#vasp", dir),
				Extractor: "matio",
				Metadata:  map[string]interface{}{"candidates": []string{"matio"}},
			}
			for _, fi := range vasp {
				g.Files = append(g.Files, fi.Path)
			}
			out = append(out, g)
			if hasStructure {
				// The compute-heavy ASE analysis shares the structure files.
				ag := family.Group{
					ID:        fmt.Sprintf("%s#ase", dir),
					Extractor: "ase",
					Metadata:  map[string]interface{}{"candidates": []string{"ase"}},
				}
				for _, fi := range vasp {
					up := strings.ToUpper(fi.Name)
					if up == "POSCAR" || up == "CONTCAR" {
						ag.Files = append(ag.Files, fi.Path)
					}
				}
				out = append(out, ag)
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
