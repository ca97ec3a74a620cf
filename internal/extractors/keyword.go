package extractors

import (
	"sort"
	"strings"
	"unicode"

	"xtract/internal/family"
	"xtract/internal/store"
)

// stopwords is a compact English stopword list sufficient for scientific
// free text.
var stopwords = map[string]bool{
	"a": true, "about": true, "above": true, "after": true, "again": true,
	"all": true, "also": true, "an": true, "and": true, "any": true,
	"are": true, "as": true, "at": true, "be": true, "because": true,
	"been": true, "before": true, "being": true, "below": true, "between": true,
	"both": true, "but": true, "by": true, "can": true, "could": true,
	"did": true, "do": true, "does": true, "doing": true, "down": true,
	"during": true, "each": true, "few": true, "for": true, "from": true,
	"further": true, "had": true, "has": true, "have": true, "having": true,
	"he": true, "her": true, "here": true, "hers": true, "him": true,
	"his": true, "how": true, "i": true, "if": true, "in": true,
	"into": true, "is": true, "it": true, "its": true, "just": true,
	"me": true, "more": true, "most": true, "my": true, "no": true,
	"nor": true, "not": true, "now": true, "of": true, "off": true,
	"on": true, "once": true, "only": true, "or": true, "other": true,
	"our": true, "out": true, "over": true, "own": true, "s": true,
	"same": true, "she": true, "should": true, "so": true, "some": true,
	"such": true, "t": true, "than": true, "that": true, "the": true,
	"their": true, "them": true, "then": true, "there": true, "these": true,
	"they": true, "this": true, "those": true, "through": true, "to": true,
	"too": true, "under": true, "until": true, "up": true, "very": true,
	"was": true, "we": true, "were": true, "what": true, "when": true,
	"where": true, "which": true, "while": true, "who": true, "whom": true,
	"why": true, "will": true, "with": true, "would": true, "you": true,
	"your": true,
}

// Keyword identifies uniquely descriptive words in free-text documents
// (READMEs, papers, abstracts). The paper uses word embeddings to weight
// keywords; this implementation substitutes a TF weighting with a
// rarity boost for longer tokens — same interface, same pipeline
// position, deterministic output.
type Keyword struct {
	// TopN bounds how many keywords are returned.
	TopN int
}

// NewKeyword returns a keyword extractor returning the top n keywords.
func NewKeyword(n int) *Keyword {
	if n <= 0 {
		n = 10
	}
	return &Keyword{TopN: n}
}

// Name implements Extractor.
func (k *Keyword) Name() string { return "keyword" }

// Version implements Versioner for the result cache key.
func (k *Keyword) Version() string { return "1" }

// Container implements Extractor.
func (k *Keyword) Container() string { return "xtract-keyword" }

// Applies implements Extractor: free-text-like extensions and MIME types,
// plus unknown types (the paper initially treats untyped files as free
// text).
func (k *Keyword) Applies(info store.FileInfo) bool {
	if info.IsDir {
		return false
	}
	switch info.Extension {
	case "txt", "md", "rst", "readme", "text", "pdf", "doc", "abstract", "log", "tex":
		return true
	case "":
		return true // untypable files default to free text
	}
	switch info.MimeType {
	case store.MimeText, store.MimePDF, store.MimePresentation:
		return true
	}
	return false
}

// KeywordWeight pairs a keyword with its relevance weight: the shape of
// one element of the "keywords" list, for decoding a document.
type KeywordWeight struct {
	Keyword string  `json:"keyword"`
	Weight  float64 `json:"weight"`
}

// Extract implements Extractor.
func (k *Keyword) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	tf := make(map[string]*int)
	totalTokens := 0
	looksTabular := false
	var tok []byte // the token being read, lower-cased
	for _, data := range files {
		text := string(data)
		if isProbablyTabular(text) {
			looksTabular = true
		}
		if !isASCII(text) {
			// Case folding and letterhood beyond ASCII are unicode's to decide.
			for _, t := range tokenize(text) {
				totalTokens += countToken(tf, []byte(t))
			}
			continue
		}
		for i := 0; i <= len(text); i++ {
			if i < len(text) && text[i]|0x20 >= 'a' && text[i]|0x20 <= 'z' {
				tok = append(tok, text[i]|0x20)
				continue
			}
			totalTokens += countToken(tf, tok)
			tok = tok[:0]
		}
	}
	if totalTokens == 0 {
		md := map[string]interface{}{"keywords": []interface{}{}, "tokens": 0}
		if looksTabular {
			md[SuggestKey] = []string{"tabular"}
		}
		return md, nil
	}
	type scored struct {
		word  string
		score float64
	}
	all := make([]scored, 0, len(tf))
	for w, c := range tf {
		// TF with a length boost standing in for embedding-based rarity:
		// longer tokens are rarer and more descriptive in scientific text.
		score := float64(*c) / float64(totalTokens) * (1 + float64(len(w))/10)
		all = append(all, scored{w, score})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].word < all[j].word
	})
	n := k.TopN
	if n > len(all) {
		n = len(all)
	}
	// Generic values in KeywordWeight's shape, which encode canonically in
	// one pass where the typed slice takes the encode-decode-encode trip.
	keywords := make([]interface{}, 0, n)
	for _, s := range all[:n] {
		keywords = append(keywords, map[string]interface{}{"keyword": s.word, "weight": s.score})
	}
	md := map[string]interface{}{
		"keywords": keywords,
		"tokens":   totalTokens,
		"distinct": len(tf),
	}
	if looksTabular {
		// Dynamic plan: this "free text" file also contains a table.
		md[SuggestKey] = []string{"tabular"}
	}
	return md, nil
}

// countToken counts one lower-cased token unless it is short or a
// stopword, and reports whether it did. The maps are probed with
// string(tok), which does not allocate: only a token seen for the first
// time is copied.
func countToken(tf map[string]*int, tok []byte) int {
	if len(tok) < 3 || stopwords[string(tok)] {
		return 0
	}
	n := tf[string(tok)]
	if n == nil {
		n = new(int)
		tf[string(tok)] = n
	}
	*n++
	return 1
}

// tokenize lowercases and splits on non-letter runes.
func tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r)
	})
}

// isProbablyTabular reports whether most non-empty lines have the same
// comma/tab field count greater than one.
func isProbablyTabular(text string) bool {
	counts := make(map[int]int)
	nonEmpty := 0
	for ln, rest, ok := nextLine(text); ok; ln, rest, ok = nextLine(rest) {
		ln = strings.TrimSpace(ln)
		if ln == "" {
			continue
		}
		nonEmpty++
		c := strings.Count(ln, ",")
		if t := strings.Count(ln, "\t"); t > c {
			c = t
		}
		counts[c]++
	}
	if nonEmpty < 3 {
		return false
	}
	for fields, n := range counts {
		if fields >= 1 && n*2 > nonEmpty {
			return true
		}
	}
	return false
}
