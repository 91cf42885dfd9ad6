// Package similarity provides the string-matching substrate KATARA uses to
// align table cell values with knowledge-base labels.
//
// The paper relies on Jena LARQ (Lucene) with a 0.7 match threshold; this
// package reproduces that behaviour with a normalising tokenizer, a composite
// similarity score (exact, Jaro-Winkler, Levenshtein, trigram Jaccard), and a
// trigram inverted index for sub-linear fuzzy candidate lookup.
package similarity

import (
	"strings"
	"unicode"
)

// DefaultThreshold mirrors the Lucene threshold used in the paper (§7).
const DefaultThreshold = 0.7

// Normalize canonicalises a string for matching: lower-case, collapse
// whitespace, strip punctuation except intra-word hyphens and periods used in
// abbreviations ("S. Africa" and "s africa" normalise identically).
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	lastSpace := true
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
			lastSpace = false
		case unicode.IsSpace(r), r == '_', r == '-', r == '.', r == ',', r == '/':
			if !lastSpace {
				b.WriteByte(' ')
				lastSpace = true
			}
		default:
			// drop other punctuation entirely
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// Levenshtein returns the edit distance between a and b.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// LevenshteinSim converts edit distance to a similarity in [0,1].
func LevenshteinSim(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len([]rune(a)), len([]rune(b))
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(m)
}

// Jaro returns the Jaro similarity of a and b.
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler boosts Jaro similarity for shared prefixes (scaling 0.1, max
// prefix 4), the standard parameterisation.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// trigrams returns the padded character trigrams of s.
func trigrams(s string) []string {
	padded := "  " + s + " "
	runes := []rune(padded)
	if len(runes) < 3 {
		return []string{string(runes)}
	}
	out := make([]string, 0, len(runes)-2)
	for i := 0; i+3 <= len(runes); i++ {
		out = append(out, string(runes[i:i+3]))
	}
	return out
}

// TrigramJaccard returns the Jaccard similarity of the trigram sets of a and b.
func TrigramJaccard(a, b string) float64 {
	ta, tb := trigrams(a), trigrams(b)
	set := make(map[string]uint8, len(ta))
	for _, g := range ta {
		set[g] |= 1
	}
	for _, g := range tb {
		set[g] |= 2
	}
	inter, union := 0, 0
	for _, v := range set {
		union++
		if v == 3 {
			inter++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Score is the composite similarity used for value↔label matching: strings
// are normalised, exact matches score 1, otherwise the maximum of
// Jaro-Winkler, Levenshtein similarity and trigram Jaccard.
func Score(a, b string) float64 {
	return scoreNormalized(Normalize(a), Normalize(b))
}

// scoreNormalized is Score over already-normalised strings (Normalize is
// idempotent, so Score(a, b) == scoreNormalized(Normalize(a), Normalize(b))).
func scoreNormalized(na, nb string) float64 {
	if na == nb {
		return 1
	}
	if na == "" || nb == "" {
		return 0
	}
	s := JaroWinkler(na, nb)
	if l := LevenshteinSim(na, nb); l > s {
		s = l
	}
	if t := TrigramJaccard(na, nb); t > s {
		s = t
	}
	return s
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
