package sparql

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse compiles a query string into its AST.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("trailing input %q", p.peek().text)
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sparql: at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	if p.peek().kind != k {
		return token{}, p.errf("expected %s, got %q", what, p.peek().text)
	}
	return p.next(), nil
}

func (p *parser) keyword(word string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == word {
		p.next()
		return true
	}
	return false
}

func (p *parser) parseQuery() (*Query, error) {
	// Skip PREFIX declarations (prefixed names are opaque to the engine).
	for p.keyword("PREFIX") {
		if _, err := p.expect(tokIRI, "prefix name"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokIRI, "prefix IRI"); err != nil {
			return nil, err
		}
	}
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errf("expected SELECT or ASK, got %q", t.text)
	}
	q := &Query{}
	switch t.text {
	case "SELECT":
		p.next()
		if p.keyword("DISTINCT") {
			q.Distinct = true
		}
		if err := p.parseProjection(q); err != nil {
			return nil, err
		}
		p.keyword("WHERE")
	case "ASK":
		p.next()
		q.Kind = Ask
	default:
		return nil, p.errf("expected SELECT or ASK, got %q", t.text)
	}
	where, err := p.parseGroup()
	if err != nil {
		return nil, err
	}
	q.Where = where
	if p.keyword("ORDER") {
		if !p.keyword("BY") {
			return nil, p.errf("expected BY after ORDER")
		}
		desc := false
		switch {
		case p.keyword("DESC"):
			desc = true
		case p.keyword("ASC"):
		}
		var v token
		if p.peek().kind == tokLParen {
			p.next()
			v, err = p.expect(tokVar, "ORDER BY variable")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return nil, err
			}
		} else {
			v, err = p.expect(tokVar, "ORDER BY variable")
			if err != nil {
				return nil, err
			}
		}
		q.OrderBy = v.text
		q.OrderDesc = desc
	}
	if p.keyword("LIMIT") {
		n, err := p.expect(tokInt, "LIMIT count")
		if err != nil {
			return nil, err
		}
		lim, err := strconv.Atoi(n.text)
		if err != nil || lim < 0 {
			return nil, p.errf("bad LIMIT %q", n.text)
		}
		q.Limit = lim
	}
	return q, nil
}

// parseProjection handles `*`, a variable list, or (COUNT(...) AS ?v).
func (p *parser) parseProjection(q *Query) error {
	if p.peek().kind == tokStar {
		p.next()
		return nil
	}
	if p.peek().kind == tokLParen {
		p.next()
		if !p.keyword("COUNT") {
			return p.errf("expected COUNT in aggregate projection")
		}
		if _, err := p.expect(tokLParen, "'(' after COUNT"); err != nil {
			return err
		}
		switch p.peek().kind {
		case tokStar:
			p.next()
		case tokVar:
			q.CountOf = p.next().text
		default:
			return p.errf("expected '*' or variable in COUNT")
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return err
		}
		if !p.keyword("AS") {
			return p.errf("expected AS in aggregate projection")
		}
		v, err := p.expect(tokVar, "aggregate alias variable")
		if err != nil {
			return err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return err
		}
		q.CountVar = v.text
		return nil
	}
	for p.peek().kind == tokVar {
		q.Vars = append(q.Vars, p.next().text)
	}
	if len(q.Vars) == 0 {
		return p.errf("SELECT needs at least one variable, an aggregate, or '*'")
	}
	return nil
}

// parseGroup parses a brace-delimited group graph pattern.
func (p *parser) parseGroup() ([]Node, error) {
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	var nodes []Node
	for {
		t := p.peek()
		switch {
		case t.kind == tokRBrace:
			p.next()
			return nodes, nil
		case t.kind == tokDot:
			p.next() // separator / trailing dot
		case t.kind == tokKeyword && t.text == "FILTER":
			p.next()
			f, err := p.parseFilter()
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, FilterNode{Filter: f})
		case t.kind == tokKeyword && t.text == "OPTIONAL":
			p.next()
			inner, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, OptionalNode{Where: inner})
		case t.kind == tokLBrace:
			// A nested group: either a UNION chain or a plain subgroup.
			first, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			if p.peek().kind == tokKeyword && p.peek().text == "UNION" {
				branches := [][]Node{first}
				for p.keyword("UNION") {
					b, err := p.parseGroup()
					if err != nil {
						return nil, err
					}
					branches = append(branches, b)
				}
				nodes = append(nodes, UnionNode{Branches: branches})
			} else {
				nodes = append(nodes, first...)
			}
		case t.kind == tokEOF:
			return nil, p.errf("unterminated group")
		default:
			pat, err := p.parsePattern()
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, TripleNode{Pattern: pat})
		}
	}
}

func (p *parser) parseNode() (NodeSpec, error) {
	t := p.next()
	switch t.kind {
	case tokVar:
		return NodeSpec{Kind: VarNode, Value: t.text}, nil
	case tokIRI:
		return NodeSpec{Kind: IRINode, Value: t.text}, nil
	case tokLiteral:
		return NodeSpec{Kind: LitNode, Value: t.text}, nil
	case tokInt:
		return NodeSpec{Kind: LitNode, Value: t.text}, nil
	default:
		return NodeSpec{}, fmt.Errorf("sparql: at offset %d: expected term, got %q", t.pos, t.text)
	}
}

func (p *parser) parsePattern() (Pattern, error) {
	subj, err := p.parseNode()
	if err != nil {
		return Pattern{}, err
	}
	var path []PathElt
	for {
		elt, err := p.parsePathElt()
		if err != nil {
			return Pattern{}, err
		}
		path = append(path, elt)
		if p.peek().kind == tokSlash {
			p.next()
			continue
		}
		break
	}
	obj, err := p.parseNode()
	if err != nil {
		return Pattern{}, err
	}
	return Pattern{Subject: subj, Path: path, Object: obj}, nil
}

func (p *parser) parsePathElt() (PathElt, error) {
	t := p.next()
	var elt PathElt
	switch t.kind {
	case tokIRI:
		elt.IRI = t.text
	case tokVar:
		elt.Var = t.text
	default:
		return elt, fmt.Errorf("sparql: at offset %d: expected path element, got %q", t.pos, t.text)
	}
	if p.peek().kind == tokStar {
		p.next()
		if elt.Var != "" {
			return elt, fmt.Errorf("sparql: '*' on a variable predicate is not supported")
		}
		elt.Star = true
	}
	return elt, nil
}

func (p *parser) parseFilter() (Filter, error) {
	if _, err := p.expect(tokLParen, "'(' after FILTER"); err != nil {
		return Filter{}, err
	}
	left, err := p.parseNode()
	if err != nil {
		return Filter{}, err
	}
	op := p.next()
	if op.kind != tokEq && op.kind != tokNeq {
		return Filter{}, fmt.Errorf("sparql: at offset %d: expected '=' or '!=', got %q", op.pos, op.text)
	}
	right, err := p.parseNode()
	if err != nil {
		return Filter{}, err
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return Filter{}, err
	}
	return Filter{Left: left, Right: right, Negated: op.kind == tokNeq}, nil
}

// String renders the query back to (normalised) SPARQL text, for debugging.
func (q *Query) String() string {
	var b strings.Builder
	if q.Kind == Ask {
		b.WriteString("ASK")
	} else {
		b.WriteString("SELECT")
		if q.Distinct {
			b.WriteString(" DISTINCT")
		}
		switch {
		case q.CountVar != "":
			of := "*"
			if q.CountOf != "" {
				of = "?" + q.CountOf
			}
			fmt.Fprintf(&b, " (COUNT(%s) AS ?%s)", of, q.CountVar)
		case len(q.Vars) == 0:
			b.WriteString(" *")
		default:
			for _, v := range q.Vars {
				b.WriteString(" ?" + v)
			}
		}
		b.WriteString(" WHERE")
	}
	b.WriteString(" ")
	writeNodes(&b, q.Where)
	if q.OrderBy != "" {
		b.WriteString(" ORDER BY ")
		if q.OrderDesc {
			fmt.Fprintf(&b, "DESC(?%s)", q.OrderBy)
		} else {
			b.WriteString("?" + q.OrderBy)
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

func writeNodes(b *strings.Builder, nodes []Node) {
	b.WriteString("{ ")
	for _, n := range nodes {
		switch n := n.(type) {
		case TripleNode:
			writePattern(b, n.Pattern)
		case FilterNode:
			op := "="
			if n.Filter.Negated {
				op = "!="
			}
			fmt.Fprintf(b, "FILTER(%s %s %s) ", n.Filter.Left, op, n.Filter.Right)
		case OptionalNode:
			b.WriteString("OPTIONAL ")
			writeNodes(b, n.Where)
			b.WriteString(" ")
		case UnionNode:
			for i, br := range n.Branches {
				if i > 0 {
					b.WriteString("UNION ")
				}
				writeNodes(b, br)
				b.WriteString(" ")
			}
		}
	}
	b.WriteString("}")
}

func writePattern(b *strings.Builder, pat Pattern) {
	b.WriteString(pat.Subject.String() + " ")
	for i, e := range pat.Path {
		if i > 0 {
			b.WriteString("/")
		}
		if e.Var != "" {
			b.WriteString("?" + e.Var)
		} else {
			b.WriteString("<" + e.IRI + ">")
		}
		if e.Star {
			b.WriteString("*")
		}
	}
	b.WriteString(" " + pat.Object.String() + " . ")
}
