// Package family implements Xtract's file grouping model: groups of
// logically related files, families of overlapping groups, and the
// min-transfers algorithm (Algorithm 1 in the paper) that partitions the
// file–group co-occurrence multigraph with recursive Karger min-cuts so
// files shared by several groups are shipped to as few compute sites as
// possible.
package family

import (
	"slices"
	"strconv"
	"strings"
)

// Group identifies zero or more files with a logical relationship (all
// files of one experiment, a VASP calculation's INCAR/POSCAR/OUTCAR set,
// ...) together with the extractor that should process it.
type Group struct {
	// ID uniquely names the group within a crawl.
	ID string `json:"id"`
	// Files are store paths of the group's members, in path order.
	Files []string `json:"files"`
	// Extractor names the extractor to apply to this group.
	Extractor string `json:"extractor"`
}

// Family is a set of groups whose file sets intersect, packaged as a
// single transfer-and-extraction unit. Files lists the union of member
// files assigned to this family.
type Family struct {
	// ID uniquely names the family within a crawl.
	ID string `json:"id"`
	// Files is the union of member group files placed with this family.
	Files []string `json:"files"`
	// Groups are the member groups.
	Groups []Group `json:"groups"`
	// Store names the storage endpoint where the files reside.
	Store string `json:"store,omitempty"`
	// BasePath is the directory the family was crawled from.
	BasePath string `json:"base_path,omitempty"`
	// FileMeta is the crawl-time record (the initial f.m) of every file
	// the groups touch, once each, in path order. It is read, never
	// written: families of one crawl may share its backing array.
	FileMeta []FileMeta `json:"file_meta,omitempty"`
}

// FileMeta is the minimal crawl-time file metadata record.
type FileMeta struct {
	Path      string `json:"path"`
	Size      int64  `json:"size"`
	Extension string `json:"extension,omitempty"`
	MimeType  string `json:"mime_type,omitempty"`
	// ContentHash is the file's content fingerprint (crawler.ExactKey),
	// recorded when the crawler runs with fingerprinting on.
	// It keys the extraction result cache; empty means uncacheable.
	ContentHash string `json:"content_hash,omitempty"`
}

// TotalBytes sums the sizes of the family's files.
func (f Family) TotalBytes() int64 {
	var total int64
	for _, m := range f.FileMeta {
		total += m.Size
	}
	return total
}

// Meta returns the record of one of the family's files.
func (f *Family) Meta(path string) (FileMeta, bool) {
	i, ok := slices.BinarySearchFunc(f.FileMeta, path, func(m FileMeta, p string) int {
		return strings.Compare(m.Path, p)
	})
	if !ok {
		return FileMeta{}, false
	}
	return f.FileMeta[i], true
}

// Naive packages each group as its own single-group family — the
// "regular" baseline in Figure 7 that transfers every group separately
// regardless of file overlap. Each family shares its group's backing
// arrays, as MinTransfersN's answer for disjoint groups does.
func Naive(groups []Group) []Family {
	out := make([]Family, 0, len(groups))
	for i := range groups {
		out = append(out, Family{
			ID:     "fam-naive-" + strconv.Itoa(i),
			Files:  slices.Clip(groups[i].Files),
			Groups: groups[i : i+1 : i+1],
		})
	}
	return out
}

// RedundantTransfers counts file movements beyond the first: for every
// file appearing in k distinct families, k-1 transfers are redundant.
// This is the quantity min-transfers minimizes (the paper reports 20,258
// redundant files avoided on its 100k-file sample).
func RedundantTransfers(families []Family) int {
	redundant := 0
	for _, k := range familiesPerFile(families) {
		redundant += k - 1
	}
	return redundant
}

// RedundantBytes is RedundantTransfers weighted by file size.
func RedundantBytes(families []Family, sizes map[string]int64) int64 {
	var redundant int64
	for f, k := range familiesPerFile(families) {
		redundant += int64(k-1) * sizes[f]
	}
	return redundant
}

// TotalTransferBytes sums the bytes each family must move: every file of
// every member group, counted once per family that needs it.
func TotalTransferBytes(families []Family, sizes map[string]int64) int64 {
	var total int64
	for f, k := range familiesPerFile(families) {
		total += int64(k) * sizes[f]
	}
	return total
}

// familiesPerFile counts, for every file a group names, the families
// whose groups name it.
func familiesPerFile(families []Family) map[string]int {
	count := make(map[string]int)
	for _, fam := range families {
		seen := make(map[string]bool)
		for _, g := range fam.Groups {
			for _, f := range g.Files {
				if !seen[f] {
					seen[f] = true
					count[f]++
				}
			}
		}
	}
	return count
}
