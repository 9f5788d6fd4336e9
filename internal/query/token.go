// Package query implements the declarative interface of the paper's
// motivating Example 1: a SQL dialect with a SKYLINE OF clause whose
// attributes may be missing from the stored table, in which case their
// preferences are crowdsourced.
//
//	SELECT * FROM movie_db
//	WHERE year >= 2010 AND year <= 2015
//	SKYLINE OF box_office MAX, romantic MAX
//
// The package provides the lexer, parser, catalog abstraction and executor.
// Attributes named in SKYLINE OF that exist as table columns become known
// attributes; the rest become crowd attributes answered through a
// crowd.Platform, exactly the hand-off setting of Section 2.2.
package query

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // one of , ( ) * and comparison operators
	tokKeyword
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of query"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokSymbol:
		return "symbol"
	case tokKeyword:
		return "keyword"
	default:
		return "token?"
	}
}

// keywords recognized case-insensitively. SKYLINE/OF/MIN/MAX follow the
// syntax of Börzsönyi et al. that the paper's Example 1 uses; WITH/CROWD
// extends it for explicitly declared crowd attributes.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true,
	"SKYLINE": true, "OF": true, "MIN": true, "MAX": true,
	"WITH": true, "CROWD": true, "LIMIT": true,
}

// token is one lexeme with its position for error messages.
type token struct {
	kind tokenKind
	text string // keywords are upper-cased; identifiers keep their case
	pos  int    // byte offset in the input
}

// lexer splits a query string into tokens.
type lexer struct {
	input string
	at    int
}

// lexError reports a malformed query at a byte offset.
type lexError struct {
	pos int
	msg string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("query: %s at offset %d", e.msg, e.pos)
}

func (lx *lexer) next() (token, error) {
	for lx.at < len(lx.input) && unicode.IsSpace(rune(lx.input[lx.at])) {
		lx.at++
	}
	if lx.at >= len(lx.input) {
		return token{kind: tokEOF, pos: lx.at}, nil
	}
	start := lx.at
	c := lx.input[lx.at]
	switch {
	case c == '\'' || c == '"':
		quote := c
		lx.at++
		var b strings.Builder
		for lx.at < len(lx.input) && lx.input[lx.at] != quote {
			b.WriteByte(lx.input[lx.at])
			lx.at++
		}
		if lx.at >= len(lx.input) {
			return token{}, &lexError{pos: start, msg: "unterminated string"}
		}
		lx.at++ // closing quote
		return token{kind: tokString, text: b.String(), pos: start}, nil

	case c == ',' || c == '(' || c == ')' || c == '*':
		lx.at++
		return token{kind: tokSymbol, text: string(c), pos: start}, nil

	case c == '<' || c == '>' || c == '=' || c == '!':
		lx.at++
		if lx.at < len(lx.input) && lx.input[lx.at] == '=' {
			lx.at++
		}
		text := lx.input[start:lx.at]
		if text == "!" {
			return token{}, &lexError{pos: start, msg: "expected != "}
		}
		return token{kind: tokSymbol, text: text, pos: start}, nil

	case c >= '0' && c <= '9' || c == '-' || c == '.':
		lx.at++
		for lx.at < len(lx.input) {
			d := lx.input[lx.at]
			if d >= '0' && d <= '9' || d == '.' || d == 'e' || d == 'E' || d == '-' || d == '+' {
				// Accept scientific notation loosely; ParseFloat validates.
				if (d == '-' || d == '+') && !(lx.input[lx.at-1] == 'e' || lx.input[lx.at-1] == 'E') {
					break
				}
				lx.at++
			} else {
				break
			}
		}
		return token{kind: tokNumber, text: lx.input[start:lx.at], pos: start}, nil

	case isIdentStart(c):
		lx.at++
		for lx.at < len(lx.input) && isIdentPart(lx.input[lx.at]) {
			lx.at++
		}
		text := lx.input[start:lx.at]
		upper := strings.ToUpper(text)
		if keywords[upper] {
			return token{kind: tokKeyword, text: upper, pos: start}, nil
		}
		return token{kind: tokIdent, text: text, pos: start}, nil

	default:
		return token{}, &lexError{pos: start, msg: fmt.Sprintf("unexpected character %q", c)}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

// lexAll tokenizes the whole input.
func lexAll(input string) ([]token, error) {
	lx := &lexer{input: input}
	var out []token
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.kind == tokEOF {
			return out, nil
		}
	}
}
