// Package validate implements Xtract's validation and transformation
// service: the asynchronous microservice that checks extracted metadata
// records against a user-selected schema, optionally transforms them, and
// ships valid JSON documents to the user's destination endpoint for
// post-processing (e.g., ingestion into a search index).
package validate

import (
	"bytes"
	"errors"
	"fmt"

	"xtract/internal/fastjson"
)

// Record is the raw metadata produced for one family, as handed to the
// validation service by the Xtract service.
type Record struct {
	JobID    string `json:"job_id"`
	FamilyID string `json:"family_id"`
	Store    string `json:"store"`
	BasePath string `json:"base_path"`
	// Files is the family's file list as fastjson.AppendStrings encodes
	// it; empty stands for null.
	Files fastjson.Raw `json:"files"`
	// Metadata maps "groupID/extractor" to that step's extracted
	// metadata dictionary, encoded as fastjson.AppendRawMap writes it:
	// keys sorted, each value the object the worker encoded, or null for
	// a step that produced none; empty stands for null. Validators splice
	// the bytes into the document and look inside without building maps.
	Metadata fastjson.Raw `json:"metadata"`
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
// appends in sorted-key order, byte-identical to the json.Marshal(map)
// form it replaces (pinned by codec_test.go), with the file list and the
// metadata spliced in as they are.
func (Passthrough) Validate(rec Record) ([]byte, error) {
	if rec.FamilyID == "" {
		return nil, fmt.Errorf("%w: missing family_id", ErrInvalid)
	}
	dst := make([]byte, 0, 192+len(rec.Files)+len(rec.Metadata))
	dst = append(dst, `{"family":`...)
	dst = fastjson.AppendString(dst, rec.FamilyID)
	dst = appendRaw(append(dst, `,"files":`...), rec.Files)
	dst = appendRaw(append(dst, `,"metadata":`...), rec.Metadata)
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

// scan walks the record's metadata once. Each key's extractor -- what
// follows its last '/' -- goes to ran, and each block's top-level keys
// are tried against the schemas ahead of the best match so far; it
// returns the first schema, in declaration order, that any block
// satisfies.
func (m *MDF) scan(md fastjson.Raw, ran func(extractor []byte)) (MDFSchema, error) {
	best := len(m.Schemas)
	for i, schema := range m.Schemas {
		if len(schema.AnyOfBlocks) == 0 {
			best = i // the catch-all bounds the search
			break
		}
	}
	d := fastjson.NewDec(md)
	err := d.ObjEach(func(key []byte) error {
		if i := bytes.LastIndexByte(key, '/'); i >= 0 {
			ran(key[i+1:])
		}
		if d.Null() {
			return nil
		}
		if best == 0 {
			return d.Skip() // no block can name an earlier schema
		}
		return d.ObjEach(func(block []byte) error {
			best = m.firstNaming(block, best)
			return d.Skip()
		})
	})
	if err != nil {
		return MDFSchema{}, fmt.Errorf("%w: metadata: %v", ErrInvalid, err)
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

// span locates a name in an arena.
type span struct{ from, to int }

// addName inserts name into set, the sorted distinct names it locates in
// arena, unless it is there already. The name is copied: a key the
// decoder had to unescape lives in its scratch buffer only until the
// next read.
func addName(arena []byte, set []span, name []byte) ([]byte, []span) {
	i := 0
	for i < len(set) && bytes.Compare(arena[set[i].from:set[i].to], name) < 0 {
		i++
	}
	if i < len(set) && bytes.Equal(arena[set[i].from:set[i].to], name) {
		return arena, set
	}
	from := len(arena)
	arena = append(arena, name...)
	set = append(set, span{})
	copy(set[i+1:], set[i:])
	set[i] = span{from, len(arena)}
	return arena, set
}

// empty reports whether encoded metadata holds no step at all.
func empty(md fastjson.Raw) bool {
	return len(md) == 0 || string(md) == "null" || string(md) == "{}"
}

// Validate implements Validator.
func (m *MDF) Validate(rec Record) ([]byte, error) {
	if rec.FamilyID == "" {
		return nil, fmt.Errorf("%w: missing family_id", ErrInvalid)
	}
	if empty(rec.Metadata) {
		return nil, fmt.Errorf("%w: no extracted metadata", ErrInvalid)
	}
	var arenaBuf [128]byte
	var setBuf [8]span
	arena, ran := arenaBuf[:0], setBuf[:0]
	schema, err := m.scan(rec.Metadata, func(extractor []byte) {
		arena, ran = addName(arena, ran, extractor)
	})
	if err != nil {
		return nil, err
	}
	// Direct appends in the sorted-key order of the map form this
	// replaces, byte-identical to json.Marshal of that map (pinned by
	// codec_test.go). Both nesting levels keep their keys sorted.
	dst := make([]byte, 0, 320+len(rec.Files)+len(rec.Metadata))
	dst = append(dst, `{"extractors":[`...)
	for i, s := range ran {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = fastjson.AppendString(dst, string(arena[s.from:s.to]))
	}
	dst = appendRaw(append(dst, `],"files":`...), rec.Files)
	dst = append(dst, `,"mdf":{"resource_type":"record","schema":`...)
	dst = fastjson.AppendString(dst, schema.Name)
	dst = append(dst, `,"scroll_id":`...)
	dst = fastjson.AppendString(dst, rec.FamilyID)
	dst = append(dst, `,"source_name":`...)
	dst = fastjson.AppendString(dst, m.SourceName)
	dst = appendRaw(append(dst, `},"metadata":`...), rec.Metadata)
	dst = append(dst, `,"origin":{"path":`...)
	dst = fastjson.AppendString(dst, rec.BasePath)
	dst = append(dst, `,"store":`...)
	dst = fastjson.AppendString(dst, rec.Store)
	return append(dst, `}}`...), nil
}
