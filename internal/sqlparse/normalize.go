package sqlparse

import (
	"strconv"
	"strings"
)

// Normalize renders sql in a canonical form suitable for use as a plan-cache
// key: whitespace is collapsed to single separators, keywords and aggregate
// function names are upper-cased, numeric literals are re-formatted
// canonically (so "100.0" and "100" normalize alike) and string literals are
// re-quoted. Identifiers are kept verbatim — the engine treats table and
// column names case-sensitively. Input that does not lex is returned
// verbatim, so callers can still use the result as a (never-hit) key.
// Returning it unmodified — not trimmed — keeps Normalize idempotent:
// stripping whitespace could turn an unlexable input into a lexable one
// (e.g. a trailing form feed, which the lexer rejects but TrimSpace eats),
// and the second application would then produce a different key.
func Normalize(sql string) string { return Lex(sql).Key }

// Lexed is one SQL text lexed once: its plan-cache key plus the tokens the
// parser needs, so a plan-cache miss pays for a single lex, not one for the
// key and another for the parse.
type Lexed struct {
	// Key is Normalize(sql): the canonical rendering, or the verbatim input
	// when it does not lex.
	Key  string
	toks []token
	err  error // the lex error, reported by Parse
}

// Lex lexes sql once and renders its plan-cache key. Lex(sql).Key equals
// Normalize(sql), and Lex(sql).Parse() answers exactly as Parse(sql) does.
func Lex(sql string) Lexed {
	toks, err := lex(sql)
	if err != nil {
		return Lexed{Key: sql, err: err}
	}
	return Lexed{Key: render(sql, toks), toks: toks}
}

// Parse parses the lexed tokens as one supported SQL query.
func (l Lexed) Parse() (*Query, error) {
	if l.err != nil {
		return nil, l.err
	}
	return parseTokens(l.toks)
}

// render writes the canonical form of sql's tokens (see Normalize).
func render(sql string, toks []token) string {
	var b strings.Builder
	b.Grow(len(sql))
	var prev *token // last emitted token; skipped semicolons are invisible
	for i, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if t.kind == tokSymbol && t.text == ";" {
			continue // a semicolon must not split the key space — or, by
			// acting as the spacing predecessor, glue its neighbors together
		}
		if prev != nil && needSpace(*prev, t) {
			b.WriteByte(' ')
		}
		prev = &toks[i]
		switch t.kind {
		case tokKeyword:
			b.WriteString(t.text) // already upper-cased by the lexer
		case tokIdent:
			// Aggregate names fold to upper case only in call position —
			// a column that happens to be named "avg" stays verbatim.
			upper := strings.ToUpper(t.text)
			callPos := toks[i+1].kind == tokSymbol && toks[i+1].text == "("
			if callPos && KnownAggregates[upper] {
				b.WriteString(upper)
			} else {
				b.WriteString(t.text)
			}
		case tokNumber:
			b.WriteString(strconv.FormatFloat(t.num, 'g', -1, 64))
		case tokString:
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(t.text, "'", "''"))
			b.WriteByte('\'')
		case tokSymbol:
			b.WriteString(t.text)
		}
	}
	return b.String()
}

// needSpace reports whether the canonical rendering separates prev and cur
// with a space. Punctuation binds tightly; words and literals do not.
func needSpace(prev, cur token) bool {
	tight := func(t token) bool {
		return t.kind == tokSymbol && t.text != "=" && t.text != "*"
	}
	return !tight(prev) && !tight(cur)
}
