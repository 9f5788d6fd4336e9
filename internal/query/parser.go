package query

import (
	"fmt"
	"strconv"
)

// Parse turns a query string into its AST. The grammar, with keywords
// case-insensitive:
//
//	query    := SELECT ('*' | ident (',' ident)*) FROM ident
//	            [where] skyline [limit]
//	where    := WHERE cond (AND cond)*
//	cond     := ident op (number | string)
//	op       := '<' | '<=' | '>' | '>=' | '=' | '!='
//	skyline  := SKYLINE OF attr (',' attr)*
//	attr     := ident [MIN | MAX]
//	limit    := LIMIT number
//
// Attributes default to MIN when no direction is given (the convention of
// the skyline literature the paper follows).
func Parse(input string) (*Query, error) {
	tokens, err := lexAll(input)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	tokens []token
	at     int
}

func (p *parser) peek() token { return p.tokens[p.at] }

func (p *parser) advance() token {
	tok := p.tokens[p.at]
	if p.at < len(p.tokens)-1 {
		p.at++
	}
	return tok
}

func (p *parser) errorf(tok token, format string, args ...any) error {
	return fmt.Errorf("query: %s at offset %d", fmt.Sprintf(format, args...), tok.pos)
}

func (p *parser) expectKeyword(kw string) error {
	tok := p.advance()
	if tok.kind != tokKeyword || tok.text != kw {
		return p.errorf(tok, "expected %s, found %q", kw, tok.text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	tok := p.advance()
	if tok.kind != tokIdent {
		return "", p.errorf(tok, "expected identifier, found %s %q", tok.kind, tok.text)
	}
	return tok.text, nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	var columns []string
	if p.peek().kind == tokSymbol && p.peek().text == "*" {
		p.advance()
	} else {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			columns = append(columns, col)
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.advance()
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	q := &Query{Table: table, Columns: columns}

	if p.peek().kind == tokKeyword && p.peek().text == "WHERE" {
		p.advance()
		for {
			cond, err := p.parseCondition()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, cond)
			if p.peek().kind == tokKeyword && p.peek().text == "AND" {
				p.advance()
				continue
			}
			break
		}
	}

	if err := p.expectKeyword("SKYLINE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("OF"); err != nil {
		return nil, err
	}
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		attr := SkylineAttr{Name: name, Direction: Min}
		if tok := p.peek(); tok.kind == tokKeyword && (tok.text == "MIN" || tok.text == "MAX") {
			p.advance()
			if tok.text == "MAX" {
				attr.Direction = Max
			}
		}
		q.Skyline = append(q.Skyline, attr)
		if p.peek().kind == tokSymbol && p.peek().text == "," {
			p.advance()
			continue
		}
		break
	}
	if len(q.Skyline) == 0 {
		return nil, p.errorf(p.peek(), "SKYLINE OF needs at least one attribute")
	}

	if tok := p.peek(); tok.kind == tokKeyword && tok.text == "LIMIT" {
		p.advance()
		numTok := p.advance()
		if numTok.kind != tokNumber {
			return nil, p.errorf(numTok, "LIMIT expects a number")
		}
		limit, err := strconv.Atoi(numTok.text)
		if err != nil || limit < 0 {
			return nil, p.errorf(numTok, "invalid LIMIT %q", numTok.text)
		}
		q.Limit = limit
	}

	if tok := p.peek(); tok.kind != tokEOF {
		return nil, p.errorf(tok, "unexpected trailing input %q", tok.text)
	}
	// Reject duplicate skyline attributes and projection columns.
	seen := make(map[string]bool)
	for _, a := range q.Skyline {
		if seen[a.Name] {
			return nil, fmt.Errorf("query: attribute %q listed twice in SKYLINE OF", a.Name)
		}
		seen[a.Name] = true
	}
	seenCol := make(map[string]bool)
	for _, c := range q.Columns {
		if seenCol[c] {
			return nil, fmt.Errorf("query: column %q listed twice in SELECT", c)
		}
		seenCol[c] = true
	}
	return q, nil
}

func (p *parser) parseCondition() (Condition, error) {
	attr, err := p.expectIdent()
	if err != nil {
		return Condition{}, err
	}
	opTok := p.advance()
	if opTok.kind != tokSymbol {
		return Condition{}, p.errorf(opTok, "expected comparison operator, found %q", opTok.text)
	}
	op := CompareOp(opTok.text)
	switch op {
	case OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE:
	default:
		return Condition{}, p.errorf(opTok, "unknown operator %q", opTok.text)
	}
	valTok := p.advance()
	switch valTok.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(valTok.text, 64)
		if err != nil {
			return Condition{}, p.errorf(valTok, "invalid number %q", valTok.text)
		}
		return Condition{Attr: attr, Op: op, Number: v}, nil
	case tokString:
		if op != OpEQ && op != OpNE {
			return Condition{}, p.errorf(valTok, "string conditions support only = and !=")
		}
		return Condition{Attr: attr, Op: op, Str: valTok.text, IsString: true}, nil
	default:
		return Condition{}, p.errorf(valTok, "expected a number or string, found %q", valTok.text)
	}
}
