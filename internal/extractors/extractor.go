// Package extractors implements Xtract's metadata extractor library: the
// twelve extractors described in the paper (§4.2), a registry mapping file
// types to applicable extractors, and the dynamic-plan hook by which one
// extractor's output can suggest further extractors for the same group
// (e.g., a free-text file found to contain a table also gets the tabular
// extractor, which is why the Google Drive case study has more extractor
// invocations than files).
//
// Extractors operate on real bytes: CSV is parsed, PNG headers are
// decoded, VASP-format files are read. Where the paper used heavyweight
// ML (word embeddings, SVMs, BERT, OCR), this package substitutes
// deterministic analyses in the same pipeline position — see DESIGN.md.
package extractors

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/store"
)

// SuggestKey is the reserved metadata key under which an extractor may
// return a []string of additional extractor names to apply to the group.
const SuggestKey = "xtract.suggest"

// ErrNotApplicable is returned when an extractor is run on content it
// cannot process.
var ErrNotApplicable = errors.New("extractors: not applicable to this content")

// FaultHook injects extractor failures for chaos testing.
// internal/faultinject satisfies it structurally; a nil hook is a no-op.
// The extraction runner (internal/core's step handler) consults it before
// invoking the extractor.
type FaultHook interface {
	// ExtractFault is consulted once per step execution. panics=true
	// makes the runner panic mid-step (exercising worker panic
	// recovery); a non-nil err fails the step before the extractor runs.
	ExtractFault(extractor, groupID string) (panics bool, err error)
}

// DefaultVersion is the version stamp assumed for extractors that do not
// implement Versioner.
const DefaultVersion = "1"

// Versioner is the optional interface by which an extractor stamps its
// implementation version. The version is part of the extraction result
// cache key: bump it whenever the extractor's output for the same input
// bytes changes, and every stale cached result it ever produced is
// invalidated at once.
type Versioner interface {
	Version() string
}

// VersionOf returns an extractor's version stamp, DefaultVersion when it
// does not implement Versioner.
func VersionOf(e Extractor) string {
	if v, ok := e.(Versioner); ok {
		return v.Version()
	}
	return DefaultVersion
}

// Extractor is a metadata extractor function: it processes a group of
// file contents and returns a metadata dictionary.
type Extractor interface {
	// Name is the unique extractor name used in plans and the registry.
	Name() string
	// Container names the runtime container image the extractor needs.
	Container() string
	// Applies reports whether the extractor is an initial candidate for a
	// file, judged only on crawl-time metadata (name, extension, size,
	// MIME type) — grouping functions run without reading file bytes.
	Applies(info store.FileInfo) bool
	// Extract computes metadata for the group. files maps each group file
	// path to its contents. g.Files, in path order, is the family's own
	// slice, which concurrent executions of the step share: Extract reads
	// it and never writes it. Extract keeps neither g nor files once it
	// returns: the worker reuses both for its task's next step. What it
	// returns may hold g.Files and the file contents.
	Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error)
}

// Library is a registry of extractors by name.
type Library struct {
	byName map[string]Extractor
	order  []string
}

// NewLibrary returns a library containing the given extractors.
func NewLibrary(exts ...Extractor) *Library {
	l := &Library{byName: make(map[string]Extractor)}
	for _, e := range exts {
		l.Register(e)
	}
	return l
}

// DefaultLibrary returns the full built-in extractor set. Registration
// order matters: Candidate takes the first match in this order as a
// group's initial extractor, so format-specific
// extractors come first and the free-text fallback (keyword) last.
func DefaultLibrary() *Library {
	return NewLibrary(
		NewMatIO(),
		NewASE(),
		NewTabular(),
		NewNullValue(),
		NewImageSort(),
		NewImages(),
		NewHierarchical(),
		NewSemiStructured(),
		NewPythonCode(),
		NewCCode(),
		NewCompressed(),
		NewKeyword(15),
		NewEntity(),
	)
}

// Register adds or replaces an extractor.
func (l *Library) Register(e Extractor) {
	if _, ok := l.byName[e.Name()]; !ok {
		l.order = append(l.order, e.Name())
	}
	l.byName[e.Name()] = e
}

// Get returns the named extractor.
func (l *Library) Get(name string) (Extractor, error) {
	e, ok := l.byName[name]
	if !ok {
		return nil, fmt.Errorf("extractors: unknown extractor %q", name)
	}
	return e, nil
}

// Names lists registered extractor names in registration order.
func (l *Library) Names() []string {
	out := make([]string, len(l.order))
	copy(out, l.order)
	return out
}

// Candidate returns the first extractor, in registration order, whose
// Applies accepts the file: a group's initial extractor. "" is none.
func (l *Library) Candidate(info store.FileInfo) string {
	for _, name := range l.order {
		if l.byName[name].Applies(info) {
			return name
		}
	}
	return ""
}

// Suggestions pulls the dynamic-plan extractor suggestions out of a
// step's encoded metadata. The bytes are looked into only when they
// mention the reserved key at all, and then only along the top level.
func Suggestions(md fastjson.Raw) []string {
	if !bytes.Contains(md, []byte(`"`+SuggestKey+`"`)) {
		return nil
	}
	var out []string
	d := fastjson.NewDec(md)
	_ = d.ObjEach(func(key []byte) error {
		if string(key) != SuggestKey {
			return d.Skip()
		}
		return d.ArrEach(func() error {
			s, err := d.Str()
			if err != nil {
				return d.Skip() // not a string: ignored
			}
			out = append(out, s)
			return nil
		})
	})
	return out
}

// sortedKeys returns a map's keys sorted, for deterministic metadata.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
