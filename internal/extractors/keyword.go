package extractors

import (
	"cmp"
	"slices"
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

// KeywordWeight pairs a keyword with its relevance weight.
type KeywordWeight struct {
	Keyword string  `json:"keyword"`
	Weight  float64 `json:"weight"`
}

// AppendCanonical implements fastjson.Canonical.
func (k KeywordWeight) AppendCanonical(dst []byte) ([]byte, error) {
	m := object(dst)
	m.text("keyword", k.Keyword)
	m.number("weight", k.Weight)
	return m.end()
}

// Keywords is a keyword result's "keywords" list.
type Keywords []KeywordWeight

// AppendCanonical implements fastjson.Canonical.
func (ks Keywords) AppendCanonical(dst []byte) ([]byte, error) { return appendRecords(dst, ks) }

// Extract implements Extractor.
func (k *Keyword) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	tf := make(map[string]int)
	totalTokens := 0
	looksTabular := false
	for _, data := range files {
		if !isASCII(data) {
			// Case folding and letterhood beyond ASCII are unicode's to decide.
			text := string(data)
			looksTabular = looksTabular || isProbablyTabular(text)
			for _, t := range tokenize(text) {
				totalTokens += countToken(tf, t)
			}
			continue
		}
		text, n := countASCII(tf, data)
		totalTokens += n
		looksTabular = looksTabular || isProbablyTabular(text)
	}
	if totalTokens == 0 {
		md := map[string]interface{}{"keywords": Keywords{}, "tokens": 0}
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
		score := float64(c) / float64(totalTokens) * (1 + float64(len(w))/10)
		all = append(all, scored{w, score})
	}
	slices.SortFunc(all, func(a, b scored) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return strings.Compare(a.word, b.word)
	})
	n := k.TopN
	if n > len(all) {
		n = len(all)
	}
	keywords := make(Keywords, 0, n)
	for _, s := range all[:n] {
		keywords = append(keywords, KeywordWeight{Keyword: s.word, Weight: s.score})
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

// longestStopword is the length of the longest stopword: a longer token
// is counted without a lookup.
var longestStopword = func() (n int) {
	for w := range stopwords {
		n = max(n, len(w))
	}
	return n
}()

// countToken counts one lower-cased token unless it is short or a
// stopword, and reports whether it did.
func countToken(tf map[string]int, tok string) int {
	if len(tok) < 3 || len(tok) <= longestStopword && stopwords[tok] {
		return 0
	}
	tf[tok]++
	return 1
}

// countASCII counts the tokens of an ASCII file, runs of letters
// lower-cased, into tf, and returns the file's lower-cased copy and how
// many it counted. The copy is the one allocation: it is written in the
// same pass, and a token is counted as a substring of it once its bytes
// are in; later writes only extend it.
func countASCII(tf map[string]int, data []byte) (text string, n int) {
	var b strings.Builder
	b.Grow(len(data))
	done, start := 0, -1 // data[:done] is in b; a token begins at start
	for i, c := range data {
		switch {
		case c-'a' < 26:
		case c-'A' < 26:
			b.Write(data[done:i])
			b.WriteByte(c + 'a' - 'A')
			done = i + 1
		default:
			if start >= 0 {
				b.Write(data[done:i])
				done = i
				n += countToken(tf, b.String()[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	b.Write(data[done:])
	if start >= 0 {
		n += countToken(tf, b.String()[start:])
	}
	return b.String(), n
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
