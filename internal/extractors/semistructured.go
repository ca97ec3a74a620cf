package extractors

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"sort"
	"strings"

	"xtract/internal/family"
	"xtract/internal/store"
)

// SemiStructured extracts key paths, value types, and shape statistics
// from JSON and XML documents.
type SemiStructured struct {
	// MaxPaths bounds how many distinct key paths are reported.
	MaxPaths int
}

// NewSemiStructured returns the semi-structured extractor.
func NewSemiStructured() *SemiStructured { return &SemiStructured{MaxPaths: 64} }

// Name implements Extractor.
func (s *SemiStructured) Name() string { return "semistructured" }

// Version implements Versioner for the result cache key.
func (s *SemiStructured) Version() string { return "1" }

// Container implements Extractor.
func (s *SemiStructured) Container() string { return "xtract-semistructured" }

// Applies implements Extractor.
func (s *SemiStructured) Applies(info store.FileInfo) bool {
	if info.IsDir {
		return false
	}
	switch info.Extension {
	case "json", "xml", "yaml", "yml":
		return true
	}
	return info.MimeType == store.MimeJSON || info.MimeType == store.MimeXML
}

// Extract implements Extractor.
func (s *SemiStructured) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	paths := sortedKeys(files)
	parsed := 0
	out := make(map[string]interface{})
	for _, p := range paths {
		data := files[p]
		trimmed := strings.TrimSpace(string(data))
		var md map[string]interface{}
		switch {
		case strings.HasPrefix(trimmed, "{") || strings.HasPrefix(trimmed, "["):
			md = s.extractJSON(data)
		case strings.HasPrefix(trimmed, "<"):
			md = s.extractXML(data)
		case strings.HasSuffix(strings.ToLower(p), ".yaml"), strings.HasSuffix(strings.ToLower(p), ".yml"):
			md = s.extractYAMLish(trimmed)
		}
		if md != nil {
			parsed++
			out[p] = md
		}
	}
	if parsed == 0 {
		return nil, ErrNotApplicable
	}
	return map[string]interface{}{"documents": out, "parsed": parsed}, nil
}

// extractJSON walks a JSON document collecting key paths, types, depth.
func (s *SemiStructured) extractJSON(data []byte) map[string]interface{} {
	var doc interface{}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil
	}
	pathTypes := make(map[string]string)
	maxDepth := 0
	var walk func(v interface{}, path string, depth int)
	walk = func(v interface{}, path string, depth int) {
		if depth > maxDepth {
			maxDepth = depth
		}
		switch t := v.(type) {
		case map[string]interface{}:
			for k, child := range t {
				walk(child, path+"/"+k, depth+1)
			}
		case []interface{}:
			if len(t) > 0 {
				walk(t[0], path+"[]", depth+1)
			}
		case string:
			pathTypes[path] = "string"
		case float64:
			pathTypes[path] = "number"
		case bool:
			pathTypes[path] = "bool"
		case nil:
			pathTypes[path] = "null"
		}
	}
	walk(doc, "", 0)
	keys := make([]string, 0, len(pathTypes))
	for k := range pathTypes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > s.MaxPaths {
		keys = keys[:s.MaxPaths]
	}
	types := make(map[string]string, len(keys))
	for _, k := range keys {
		types[k] = pathTypes[k]
	}
	return map[string]interface{}{
		"format":    "json",
		"paths":     types,
		"num_paths": len(pathTypes),
		"max_depth": maxDepth,
	}
}

// extractXML counts element tags and attributes via streaming decode.
func (s *SemiStructured) extractXML(data []byte) map[string]interface{} {
	dec := xml.NewDecoder(strings.NewReader(string(data)))
	tagCounts := make(map[string]int)
	attrs := make(map[string]int)
	depth, maxDepth, elements := 0, 0, 0
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch t := tok.(type) {
		case xml.StartElement:
			elements++
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
			tagCounts[t.Name.Local]++
			for _, a := range t.Attr {
				attrs[a.Name.Local]++
			}
		case xml.EndElement:
			depth--
		}
	}
	if elements == 0 {
		return nil
	}
	return map[string]interface{}{
		"format":    "xml",
		"elements":  elements,
		"tags":      sortedKeys(tagCounts),
		"attrs":     sortedKeys(attrs),
		"max_depth": maxDepth,
	}
}

// extractYAMLish handles flat "key: value" documents (enough for the
// MDF-style yaml sidecars in the dataset generator) without a YAML
// dependency.
func (s *SemiStructured) extractYAMLish(text string) map[string]interface{} {
	keys := make(map[string]string)
	for ln, rest, ok := nextLine(text); ok; ln, rest, ok = nextLine(rest) {
		ln = strings.TrimRight(ln, "\r")
		if strings.TrimSpace(ln) == "" || strings.HasPrefix(strings.TrimSpace(ln), "#") {
			continue
		}
		if i := strings.Index(ln, ":"); i > 0 {
			key := strings.TrimSpace(ln[:i])
			val := strings.TrimSpace(ln[i+1:])
			if key != "" && !strings.Contains(key, " ") {
				typ := "string"
				if val == "" {
					typ = "mapping"
				} else if isNumeric(val) {
					typ = "number"
				} else if val == "true" || val == "false" {
					typ = "bool"
				}
				keys[key] = typ
			}
		}
	}
	if len(keys) == 0 {
		return nil
	}
	return map[string]interface{}{
		"format":   "yaml",
		"keys":     keys,
		"num_keys": len(keys),
	}
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	_, err := fmt.Sscanf(s, "%f", new(float64))
	return err == nil
}
