// Package validate implements Xtract's validation and transformation
// service: the asynchronous microservice that checks extracted metadata
// records against a user-selected schema, optionally transforms them, and
// ships valid JSON documents to the user's destination endpoint for
// post-processing (e.g., ingestion into a search index).
package validate

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"xtract/internal/fastjson"
)

// Record is the raw metadata produced for one family, as handed to the
// validation service by the Xtract service.
type Record struct {
	JobID    string   `json:"job_id"`
	FamilyID string   `json:"family_id"`
	Store    string   `json:"store"`
	BasePath string   `json:"base_path"`
	Files    []string `json:"files"`
	// Metadata maps "groupID/extractor" to that step's extracted
	// metadata dictionary, as the worker encoded it: an object, or
	// empty/null for a step that produced none. Validators splice the
	// bytes into the document and look inside without building maps.
	Metadata map[string]fastjson.Raw `json:"metadata"`
	// Extracted lists the extractors that ran, with timings.
	Extracted []StepResult `json:"extracted"`
}

// StepResult records one extractor application.
type StepResult struct {
	GroupID   string        `json:"group_id"`
	Extractor string        `json:"extractor"`
	OK        bool          `json:"ok"`
	Err       string        `json:"err,omitempty"`
	Duration  time.Duration `json:"duration"`
	// Cached marks metadata replayed from the extraction result cache
	// instead of a fresh extractor invocation — the provenance trail for
	// warm-run records.
	Cached bool `json:"cached,omitempty"`
}

// ErrInvalid is wrapped by all validation failures.
var ErrInvalid = errors.New("validate: record invalid")

// Validator checks and transforms a Record into a final JSON document.
type Validator interface {
	// Name identifies the validator.
	Name() string
	// Validate returns the transformed document or an error wrapping
	// ErrInvalid.
	Validate(rec Record) ([]byte, error)
}

// Passthrough converts the metadata dictionary into valid JSON with a
// minimal envelope — the paper's 'passthrough' validator.
type Passthrough struct{}

// Name implements Validator.
func (Passthrough) Name() string { return "passthrough" }

// Validate implements Validator. The document is built by direct
// appends in the map's sorted-key order, byte-identical to the
// json.Marshal(map) form it replaces (pinned by codec_test.go).
func (Passthrough) Validate(rec Record) ([]byte, error) {
	if rec.FamilyID == "" {
		return nil, fmt.Errorf("%w: missing family_id", ErrInvalid)
	}
	dst := make([]byte, 0, 256+metadataLen(rec.Metadata))
	dst = append(dst, `{"family":`...)
	dst = fastjson.AppendString(dst, rec.FamilyID)
	dst = fastjson.AppendStrings(append(dst, `,"files":`...), rec.Files)
	dst = fastjson.AppendRawMap(append(dst, `,"metadata":`...), rec.Metadata)
	dst = append(dst, `,"path":`...)
	dst = fastjson.AppendString(dst, rec.BasePath)
	dst = append(dst, `,"schema":"passthrough/v1","store":`...)
	dst = fastjson.AppendString(dst, rec.Store)
	return append(dst, '}'), nil
}

// MDFSchema describes one of the MDF target schemas: required metadata
// blocks and the document type they map to.
type MDFSchema struct {
	Name string
	// AnyOfBlocks: at least one extracted metadata dictionary must
	// contain one of these keys for the schema to apply.
	AnyOfBlocks []string
}

// DefaultMDFSchemas returns the 12 schema variants of the MDF validator.
func DefaultMDFSchemas() []MDFSchema {
	return []MDFSchema{
		{Name: "mdf.material", AnyOfBlocks: []string{"structure", "crystal", "composition"}},
		{Name: "mdf.dft", AnyOfBlocks: []string{"results", "dft"}},
		{Name: "mdf.geometry", AnyOfBlocks: []string{"geometry", "rdf"}},
		{Name: "mdf.image", AnyOfBlocks: []string{"images", "classes"}},
		{Name: "mdf.tabular", AnyOfBlocks: []string{"columns", "tables"}},
		{Name: "mdf.nulls", AnyOfBlocks: []string{"null_cells"}},
		{Name: "mdf.text", AnyOfBlocks: []string{"keywords"}},
		{Name: "mdf.entity", AnyOfBlocks: []string{"entities"}},
		{Name: "mdf.hierarchy", AnyOfBlocks: []string{"datasets", "groups"}},
		{Name: "mdf.code", AnyOfBlocks: []string{"functions", "imports"}},
		{Name: "mdf.archive", AnyOfBlocks: []string{"entries", "archives"}},
		{Name: "mdf.generic", AnyOfBlocks: nil}, // catch-all
	}
}

// MDF adapts extracted metadata to the MDF schema family: every record is
// typed by the first schema whose block requirement its metadata meets,
// and rendered as an MDF-style document.
type MDF struct {
	Schemas []MDFSchema
	// SourceName labels the originating repository.
	SourceName string
}

// NewMDF returns an MDF validator with the default 12 schemas.
func NewMDF(sourceName string) *MDF {
	return &MDF{Schemas: DefaultMDFSchemas(), SourceName: sourceName}
}

// Name implements Validator.
func (m *MDF) Name() string { return "mdf" }

// classify finds the first schema matched by the record's metadata: one
// scan of each block's top-level keys, each key tried only against the
// schemas ahead of the best match so far.
func (m *MDF) classify(rec Record) (MDFSchema, error) {
	best := len(m.Schemas)
	for i, schema := range m.Schemas {
		if len(schema.AnyOfBlocks) == 0 {
			best = i // the catch-all bounds the search
			break
		}
	}
	var d fastjson.Dec
	for _, md := range rec.Metadata {
		if !fastjson.IsObject(md) {
			continue
		}
		d.Reset(md)
		err := d.ObjEach(func(key []byte) error {
			best = m.firstNaming(key, best)
			return d.Skip()
		})
		if err != nil {
			return MDFSchema{}, fmt.Errorf("%w: metadata: %v", ErrInvalid, err)
		}
	}
	if best == len(m.Schemas) {
		return MDFSchema{}, fmt.Errorf("%w: no MDF schema matches", ErrInvalid)
	}
	return m.Schemas[best], nil
}

// firstNaming returns the index of the first of the leading limit schemas
// that lists key as a block, or limit when none does.
func (m *MDF) firstNaming(key []byte, limit int) int {
	for i, schema := range m.Schemas[:limit] {
		for _, block := range schema.AnyOfBlocks {
			if string(key) == block {
				return i
			}
		}
	}
	return limit
}

// metadataLen sizes a document buffer for the blocks it will splice in.
func metadataLen(md map[string]fastjson.Raw) int {
	n := 0
	for k, v := range md {
		n += len(k) + len(v) + 8
	}
	return n
}

// Validate implements Validator.
func (m *MDF) Validate(rec Record) ([]byte, error) {
	if rec.FamilyID == "" {
		return nil, fmt.Errorf("%w: missing family_id", ErrInvalid)
	}
	if len(rec.Metadata) == 0 {
		return nil, fmt.Errorf("%w: no extracted metadata", ErrInvalid)
	}
	schema, err := m.classify(rec)
	if err != nil {
		return nil, err
	}
	extractorsRan := make(map[string]bool)
	for key := range rec.Metadata {
		if i := strings.LastIndex(key, "/"); i >= 0 {
			extractorsRan[key[i+1:]] = true
		}
	}
	ranList := make([]string, 0, len(extractorsRan))
	for e := range extractorsRan {
		ranList = append(ranList, e)
	}
	sort.Strings(ranList)
	// Direct appends in the sorted-key order of the map form this
	// replaces, byte-identical to json.Marshal of that map (pinned by
	// codec_test.go). Both nesting levels keep their keys sorted.
	dst := make([]byte, 0, 384+metadataLen(rec.Metadata))
	dst = fastjson.AppendStrings(append(dst, `{"extractors":`...), ranList)
	dst = fastjson.AppendStrings(append(dst, `,"files":`...), rec.Files)
	dst = append(dst, `,"mdf":{"resource_type":"record","schema":`...)
	dst = fastjson.AppendString(dst, schema.Name)
	dst = append(dst, `,"scroll_id":`...)
	dst = fastjson.AppendString(dst, rec.FamilyID)
	dst = append(dst, `,"source_name":`...)
	dst = fastjson.AppendString(dst, m.SourceName)
	dst = fastjson.AppendRawMap(append(dst, `},"metadata":`...), rec.Metadata)
	dst = append(dst, `,"origin":{"path":`...)
	dst = fastjson.AppendString(dst, rec.BasePath)
	dst = append(dst, `,"store":`...)
	dst = fastjson.AppendString(dst, rec.Store)
	return append(dst, `}}`...), nil
}
