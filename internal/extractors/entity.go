package extractors

import (
	"regexp"
	"slices"
	"strings"

	"xtract/internal/family"
	"xtract/internal/store"
)

// Entity extracts key entities from free text — the BERT stand-in. It
// combines a gazetteer of scientific institutions, facilities, and
// materials with pattern matchers for emails, DOIs, chemical formulas,
// and grant numbers. Same pipeline position as the paper's BERT
// extractor, deterministic output.
type Entity struct{}

// NewEntity returns the entity extractor.
func NewEntity() *Entity { return &Entity{} }

// Name implements Extractor.
func (e *Entity) Name() string { return "entity" }

// Version implements Versioner for the result cache key.
func (e *Entity) Version() string { return "1" }

// Container implements Extractor.
func (e *Entity) Container() string { return "xtract-entity" }

// Applies implements Extractor: free text, same as keyword.
func (e *Entity) Applies(info store.FileInfo) bool {
	return (&Keyword{}).Applies(info)
}

// entityGazetteer maps known phrases to entity types.
var entityGazetteer = map[string]string{
	"argonne national laboratory": "organization",
	"university of chicago":       "organization",
	"national science foundation": "organization",
	"materials data facility":     "facility",
	"theta":                       "machine",
	"midway":                      "machine",
	"jetstream":                   "machine",
	"petrel":                      "facility",
	"silicon":                     "material",
	"graphene":                    "material",
	"perovskite":                  "material",
	"titanium dioxide":            "material",
	"gallium arsenide":            "material",
}

var (
	emailRe   = regexp.MustCompile(`[a-zA-Z0-9._%+\-]+@[a-zA-Z0-9.\-]+\.[a-zA-Z]{2,}`)
	doiRe     = regexp.MustCompile(`10\.\d{4,9}/[-._;()/:a-zA-Z0-9]+`)
	formulaRe = regexp.MustCompile(`\b(?:[A-Z][a-z]?\d*){2,}\b`)
	grantRe   = regexp.MustCompile(`\b(?:DE|NSF|70NANB)[-A-Z0-9]{4,}\b`)
)

// EntityMention is one recognized entity.
type EntityMention struct {
	Text string `json:"text"`
	Type string `json:"type"`
}

// AppendCanonical implements fastjson.Canonical.
func (e EntityMention) AppendCanonical(dst []byte) ([]byte, error) {
	m := object(dst)
	m.text("text", e.Text)
	m.text("type", e.Type)
	return m.end()
}

// Entities is an entity result's "entities" list.
type Entities []EntityMention

// AppendCanonical implements fastjson.Canonical.
func (es Entities) AppendCanonical(dst []byte) ([]byte, error) { return appendRecords(dst, es) }

// Extract implements Extractor.
func (e *Entity) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	seen := make(map[EntityMention]bool)
	totalChars := 0
	for _, data := range files {
		text := string(data)
		totalChars += len(text)
		lower := strings.ToLower(text)
		for phrase, typ := range entityGazetteer {
			if strings.Contains(lower, phrase) {
				seen[EntityMention{Text: phrase, Type: typ}] = true
			}
		}
		for _, m := range emailRe.FindAllString(text, 16) {
			seen[EntityMention{Text: m, Type: "email"}] = true
		}
		for _, m := range doiRe.FindAllString(text, 16) {
			seen[EntityMention{Text: m, Type: "doi"}] = true
		}
		for _, m := range grantRe.FindAllString(text, 16) {
			seen[EntityMention{Text: m, Type: "grant"}] = true
		}
		for _, m := range formulaRe.FindAllString(text, 32) {
			if isLikelyFormula(m) {
				seen[EntityMention{Text: m, Type: "chemical_formula"}] = true
			}
		}
	}
	if totalChars == 0 {
		return nil, ErrNotApplicable
	}
	mentions := make(Entities, 0, len(seen))
	for m := range seen {
		mentions = append(mentions, m)
	}
	slices.SortFunc(mentions, func(a, b EntityMention) int {
		if c := strings.Compare(a.Type, b.Type); c != 0 {
			return c
		}
		return strings.Compare(a.Text, b.Text)
	})
	return map[string]interface{}{
		"entities": mentions,
		"count":    len(mentions),
	}, nil
}

// knownElements is the periodic-table symbol set used to screen formula
// candidates.
var knownElements = map[string]bool{
	"H": true, "He": true, "Li": true, "Be": true, "B": true, "C": true,
	"N": true, "O": true, "F": true, "Ne": true, "Na": true, "Mg": true,
	"Al": true, "Si": true, "P": true, "S": true, "Cl": true, "Ar": true,
	"K": true, "Ca": true, "Ti": true, "V": true, "Cr": true, "Mn": true,
	"Fe": true, "Co": true, "Ni": true, "Cu": true, "Zn": true, "Ga": true,
	"Ge": true, "As": true, "Se": true, "Br": true, "Sr": true, "Y": true,
	"Zr": true, "Nb": true, "Mo": true, "Ag": true, "Cd": true, "In": true,
	"Sn": true, "Sb": true, "Te": true, "I": true, "Ba": true, "W": true,
	"Pt": true, "Au": true, "Hg": true, "Pb": true, "Bi": true, "U": true,
}

var formulaTokenRe = regexp.MustCompile(`[A-Z][a-z]?|\d+`)

// isLikelyFormula screens a regex candidate: every element token must be
// a known chemical symbol and at least one digit or two elements present.
func isLikelyFormula(s string) bool {
	tokens := formulaTokenRe.FindAllString(s, -1)
	elements, digits := 0, 0
	for _, t := range tokens {
		if t[0] >= '0' && t[0] <= '9' {
			digits++
			continue
		}
		if !knownElements[t] {
			return false
		}
		elements++
	}
	return elements >= 2 || (elements >= 1 && digits >= 1)
}
