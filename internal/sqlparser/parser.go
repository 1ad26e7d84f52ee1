package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"rfview/internal/sqltypes"
)

// Parser is a recursive-descent parser over the lexer's token stream.
type Parser struct {
	lex    lexer
	tokens []token
	cur    int
}

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(sql string) (Statement, error) {
	stmts, err := ParseAll(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated statement list.
func ParseAll(sql string) ([]Statement, error) {
	p := &Parser{lex: lexer{src: sql}}
	for {
		tok, err := p.lex.next()
		if err != nil {
			return nil, err
		}
		p.tokens = append(p.tokens, tok)
		if tok.kind == tkEOF {
			break
		}
	}
	var out []Statement
	for {
		for p.peek().kind == tkOp && p.peek().text == ";" {
			p.advance()
		}
		if p.peek().kind == tkEOF {
			break
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, stmt)
		if p.peek().kind == tkOp && p.peek().text == ";" {
			continue
		}
		if p.peek().kind != tkEOF {
			return nil, p.errHere("unexpected input after statement: %q", p.peek().text)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty statement")
	}
	return out, nil
}

// ParseExpr parses a standalone scalar expression (used by tests and the
// rewriter).
func ParseExpr(sql string) (Expr, error) {
	p := &Parser{lex: lexer{src: sql}}
	for {
		tok, err := p.lex.next()
		if err != nil {
			return nil, err
		}
		p.tokens = append(p.tokens, tok)
		if tok.kind == tkEOF {
			break
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tkEOF {
		return nil, p.errHere("unexpected input after expression: %q", p.peek().text)
	}
	return e, nil
}

func (p *Parser) peek() token { return p.tokens[p.cur] }
func (p *Parser) peek2() token {
	if p.cur+1 < len(p.tokens) {
		return p.tokens[p.cur+1]
	}
	return p.tokens[len(p.tokens)-1]
}

func (p *Parser) advance() token {
	t := p.tokens[p.cur]
	if p.cur < len(p.tokens)-1 {
		p.cur++
	}
	return t
}

func (p *Parser) errHere(format string, args ...any) error {
	return p.lex.errorf(p.peek().pos, format, args...)
}

// atKeyword reports whether the current token is the given keyword.
func (p *Parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tkKeyword && t.text == kw
}

// acceptKeyword consumes the keyword if present.
func (p *Parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errHere("expected %s, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *Parser) atOp(op string) bool {
	t := p.peek()
	return t.kind == tkOp && t.text == op
}

func (p *Parser) acceptOp(op string) bool {
	if p.atOp(op) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errHere("expected %q, found %q", op, p.peek().text)
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tkIdent {
		return "", p.errHere("expected identifier, found %q", t.text)
	}
	p.advance()
	return t.text, nil
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.atKeyword("SELECT"):
		return p.parseSelectStatement()
	case p.atKeyword("EXPLAIN"):
		p.advance()
		analyze := p.acceptKeyword("ANALYZE")
		start := p.peek().pos
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		src := strings.TrimSpace(p.lex.src[start:p.peek().pos])
		return &Explain{Stmt: inner, Analyze: analyze, Source: src}, nil
	case p.atKeyword("CREATE"):
		return p.parseCreate()
	case p.atKeyword("DROP"):
		return p.parseDrop()
	case p.atKeyword("REFRESH"):
		p.advance()
		if err := p.expectKeyword("MATERIALIZED"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &RefreshMatView{Name: name}, nil
	case p.atKeyword("INSERT"):
		return p.parseInsert()
	case p.atKeyword("UPDATE"):
		return p.parseUpdate()
	case p.atKeyword("DELETE"):
		return p.parseDelete()
	case p.atKeyword("BEGIN"):
		p.advance()
		p.acceptTxnNoiseWord()
		return &Begin{}, nil
	case p.atKeyword("COMMIT"):
		p.advance()
		p.acceptTxnNoiseWord()
		return &Commit{}, nil
	case p.atKeyword("ROLLBACK"):
		p.advance()
		p.acceptTxnNoiseWord()
		return &Rollback{}, nil
	default:
		return nil, p.errHere("expected a statement, found %q", p.peek().text)
	}
}

// acceptTxnNoiseWord swallows the optional TRANSACTION / WORK after BEGIN,
// COMMIT, and ROLLBACK.
func (p *Parser) acceptTxnNoiseWord() {
	if !p.acceptKeyword("TRANSACTION") {
		p.acceptKeyword("WORK")
	}
}

func (p *Parser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	unique := p.acceptKeyword("UNIQUE")
	switch {
	case p.acceptKeyword("TABLE"):
		if unique {
			return nil, p.errHere("UNIQUE applies to indexes, not tables")
		}
		return p.parseCreateTable()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex(unique)
	case p.acceptKeyword("MATERIALIZED"):
		if unique {
			return nil, p.errHere("UNIQUE applies to indexes, not views")
		}
		if err := p.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		sel, err := p.parseSelectStatement()
		if err != nil {
			return nil, err
		}
		return &CreateMatView{Name: name, Select: sel}, nil
	default:
		return nil, p.errHere("expected TABLE, INDEX, or MATERIALIZED VIEW after CREATE")
	}
}

func (p *Parser) parseCreateTable() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		colName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		cols = append(cols, ColumnDef{Name: colName, Type: typ})
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &CreateTable{Name: name, Columns: cols}, nil
}

func (p *Parser) parseType() (sqltypes.Type, error) {
	t := p.peek()
	if t.kind != tkKeyword {
		return sqltypes.Null, p.errHere("expected a type name, found %q", t.text)
	}
	p.advance()
	switch t.text {
	case "INTEGER", "INT", "BIGINT":
		return sqltypes.Int, nil
	case "FLOAT", "DOUBLE":
		return sqltypes.Float, nil
	case "VARCHAR", "TEXT":
		// Optional length: VARCHAR(30).
		if p.acceptOp("(") {
			if p.peek().kind != tkNumber {
				return sqltypes.Null, p.errHere("expected length after VARCHAR(")
			}
			p.advance()
			if err := p.expectOp(")"); err != nil {
				return sqltypes.Null, err
			}
		}
		return sqltypes.String, nil
	case "DATE":
		return sqltypes.Date, nil
	case "BOOLEAN":
		return sqltypes.Bool, nil
	default:
		return sqltypes.Null, p.errHere("unknown type %q", t.text)
	}
}

func (p *Parser) parseCreateIndex(unique bool) (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Columns: cols, Unique: unique}, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.advance() // DROP
	switch {
	case p.acceptKeyword("TABLE"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropTable{Name: name}, nil
	case p.acceptKeyword("MATERIALIZED"):
		if err := p.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropMatView{Name: name}, nil
	case p.acceptKeyword("INDEX"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropIndex{Name: name, Table: table}, nil
	default:
		return nil, p.errHere("expected TABLE, INDEX, or MATERIALIZED VIEW after DROP")
	}
}

func (p *Parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.acceptOp("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if p.atKeyword("SELECT") {
		sel, err := p.parseSelectStatement()
		if err != nil {
			return nil, err
		}
		ins.Select = sel
		return ins, nil
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	return ins, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	upd := &Update{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, Assignment{Column: col, Value: val})
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		upd.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return upd, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.acceptKeyword("WHERE") {
		del.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return del, nil
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

// parseSelectStatement parses a SELECT core, optional UNION chain, and the
// trailing ORDER BY / LIMIT (which bind to the whole union).
func (p *Parser) parseSelectStatement() (SelectStatement, error) {
	left, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	var stmt SelectStatement = left
	for p.atKeyword("UNION") {
		p.advance()
		all := p.acceptKeyword("ALL")
		right, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		stmt = &Union{Left: stmt, Right: right, All: all}
	}
	var orderBy []OrderItem
	var limit Expr
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		orderBy, err = p.parseOrderItems()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("LIMIT") {
		limit, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	switch s := stmt.(type) {
	case *Select:
		s.OrderBy = orderBy
		s.Limit = limit
	case *Union:
		s.OrderBy = orderBy
		s.Limit = limit
	}
	return stmt, nil
}

// parseSelectCore parses SELECT … [FROM …] [WHERE …] [GROUP BY …] [HAVING …]
// without ORDER BY / LIMIT (those attach at the statement level).
func (p *Parser) parseSelectCore() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	sel.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("FROM") {
		from, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		sel.From = from
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.atOp("*") {
		p.advance()
		return SelectItem{Star: true}, nil
	}
	// t.* form.
	if p.peek().kind == tkIdent && p.peek2().kind == tkOp && p.peek2().text == "." {
		save := p.cur
		tbl := p.advance().text
		p.advance() // .
		if p.atOp("*") {
			p.advance()
			return SelectItem{Star: true, Table: tbl}, nil
		}
		p.cur = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().kind == tkIdent {
		item.Alias = p.advance().text
	}
	return item, nil
}

func (p *Parser) parseOrderItems() ([]OrderItem, error) {
	var out []OrderItem
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		it := OrderItem{Expr: e}
		if p.acceptKeyword("DESC") {
			it.Desc = true
		} else {
			p.acceptKeyword("ASC")
		}
		if p.acceptKeyword("NULLS") {
			switch {
			case p.acceptKeyword("FIRST"):
				it.Nulls = NullsFirst
			case p.acceptKeyword("LAST"):
				it.Nulls = NullsLast
			default:
				return nil, p.errHere("expected FIRST or LAST after NULLS, found %q", p.peek().text)
			}
		}
		out = append(out, it)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// FROM clause
// ---------------------------------------------------------------------------

func (p *Parser) parseTableExpr() (TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp(","):
			right, err := p.parseTablePrimary()
			if err != nil {
				return nil, err
			}
			left = &Join{Left: left, Right: right, Type: CrossJoin}
		case p.atKeyword("JOIN") || p.atKeyword("INNER"):
			p.acceptKeyword("INNER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			right, err := p.parseTablePrimary()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			left = &Join{Left: left, Right: right, Type: InnerJoin, On: on}
		case p.atKeyword("LEFT"):
			p.advance()
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			right, err := p.parseTablePrimary()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			left = &Join{Left: left, Right: right, Type: LeftOuterJoin, On: on}
		case p.atKeyword("CROSS"):
			p.advance()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			right, err := p.parseTablePrimary()
			if err != nil {
				return nil, err
			}
			left = &Join{Left: left, Right: right, Type: CrossJoin}
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseTablePrimary() (TableExpr, error) {
	if p.acceptOp("(") {
		sel, err := p.parseSelectStatement()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		p.acceptKeyword("AS")
		alias, err := p.expectIdent()
		if err != nil {
			return nil, p.errHere("derived table requires an alias")
		}
		return &DerivedTable{Select: sel, Alias: alias}, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	t := &TableName{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		t.Alias = alias
	} else if p.peek().kind == tkIdent {
		t.Alias = p.advance().text
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)
// ---------------------------------------------------------------------------

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &OrExpr{Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("AND") {
		p.advance()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &AndExpr{Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{Expr: inner}, nil
	}
	return p.parsePredicate()
}

func (p *Parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	negated := false
	if p.atKeyword("NOT") && (p.peek2().text == "IN" || p.peek2().text == "BETWEEN") {
		p.advance()
		negated = true
	}
	switch {
	case p.atOp("=") || p.atOp("<>") || p.atOp("<") || p.atOp("<=") || p.atOp(">") || p.atOp(">="):
		op := p.advance().text
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &ComparisonExpr{Op: op, Left: left, Right: right}, nil
	case p.atKeyword("IN"):
		p.advance()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &InExpr{Left: left, List: list, Negated: negated}, nil
	case p.atKeyword("BETWEEN"):
		p.advance()
		from, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		to, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Expr: left, From: from, To: to, Negated: negated}, nil
	case p.atKeyword("IS"):
		p.advance()
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Expr: left, Negated: neg}, nil
	default:
		if negated {
			return nil, p.errHere("expected IN or BETWEEN after NOT")
		}
		return left, nil
	}
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.atOp("+") || p.atOp("-") {
		op := p.advance().text
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atOp("*") || p.atOp("/") {
		op := p.advance().text
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.atOp("-") {
		p.advance()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", Expr: inner}, nil
	}
	if p.atOp("+") {
		p.advance()
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tkNumber:
		p.advance()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errHere("bad numeric literal %q", t.text)
			}
			return &Literal{Val: sqltypes.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errHere("bad integer literal %q", t.text)
		}
		return &Literal{Val: sqltypes.NewInt(i)}, nil
	case tkString:
		p.advance()
		return &Literal{Val: sqltypes.NewString(t.text)}, nil
	case tkKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return &Literal{Val: sqltypes.NullDatum}, nil
		case "TRUE":
			p.advance()
			return &Literal{Val: sqltypes.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Val: sqltypes.NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "DATE":
			// DATE 'YYYY-MM-DD' literal.
			p.advance()
			if p.peek().kind != tkString {
				return nil, p.errHere("expected string after DATE")
			}
			s := p.advance().text
			d, err := sqltypes.ParseDate(s)
			if err != nil {
				return nil, p.errHere("%v", err)
			}
			return &Literal{Val: d}, nil
		}
		return nil, p.errHere("unexpected keyword %q in expression", t.text)
	case tkOp:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errHere("unexpected %q in expression", t.text)
	case tkIdent:
		// Function call?
		if p.peek2().kind == tkOp && p.peek2().text == "(" {
			return p.parseFuncOrWindow()
		}
		p.advance()
		// Qualified column?
		if p.atOp(".") {
			p.advance()
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Name: col}, nil
		}
		return &ColumnRef{Name: t.text}, nil
	default:
		return nil, p.errHere("unexpected end of input in expression")
	}
}

func (p *Parser) parseCase() (Expr, error) {
	p.advance() // CASE
	e := &CaseExpr{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		e.Whens = append(e.Whens, When{Cond: cond, Then: then})
	}
	if len(e.Whens) == 0 {
		return nil, p.errHere("CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		els, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		e.Else = els
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *Parser) parseFuncOrWindow() (Expr, error) {
	name := p.advance().text // function name
	p.advance()              // (
	fn := &FuncExpr{Name: strings.ToUpper(name)}
	if p.atOp("*") {
		p.advance()
		fn.Star = true
	} else if !p.atOp(")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fn.Args = append(fn.Args, a)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if !p.atKeyword("OVER") {
		return fn, nil
	}
	p.advance() // OVER
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	w := &WindowExpr{Func: fn}
	if p.acceptKeyword("PARTITION") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			w.PartitionBy = append(w.PartitionBy, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		items, err := p.parseOrderItems()
		if err != nil {
			return nil, err
		}
		w.OrderBy = items
	}
	if p.acceptKeyword("ROWS") {
		frame, err := p.parseFrame()
		if err != nil {
			return nil, err
		}
		w.Frame = frame
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return w, nil
}

func (p *Parser) parseFrame() (*FrameClause, error) {
	if p.acceptKeyword("BETWEEN") {
		start, err := p.parseFrameBound()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		end, err := p.parseFrameBound()
		if err != nil {
			return nil, err
		}
		return &FrameClause{Start: start, End: end}, nil
	}
	// One-bound shorthand: ROWS <bound> means BETWEEN <bound> AND CURRENT ROW.
	start, err := p.parseFrameBound()
	if err != nil {
		return nil, err
	}
	return &FrameClause{Start: start, End: FrameBound{Type: CurrentRow}}, nil
}

func (p *Parser) parseFrameBound() (FrameBound, error) {
	switch {
	case p.acceptKeyword("UNBOUNDED"):
		switch {
		case p.acceptKeyword("PRECEDING"):
			return FrameBound{Type: UnboundedPreceding}, nil
		case p.acceptKeyword("FOLLOWING"):
			return FrameBound{Type: UnboundedFollowing}, nil
		default:
			return FrameBound{}, p.errHere("expected PRECEDING or FOLLOWING after UNBOUNDED")
		}
	case p.acceptKeyword("CURRENT"):
		if err := p.expectKeyword("ROW"); err != nil {
			return FrameBound{}, err
		}
		return FrameBound{Type: CurrentRow}, nil
	case p.peek().kind == tkNumber:
		n, err := strconv.Atoi(p.advance().text)
		if err != nil || n < 0 {
			return FrameBound{}, p.errHere("frame offset must be a non-negative integer")
		}
		switch {
		case p.acceptKeyword("PRECEDING"):
			return FrameBound{Type: OffsetPreceding, Offset: n}, nil
		case p.acceptKeyword("FOLLOWING"):
			return FrameBound{Type: OffsetFollowing, Offset: n}, nil
		default:
			return FrameBound{}, p.errHere("expected PRECEDING or FOLLOWING after frame offset")
		}
	default:
		return FrameBound{}, p.errHere("bad frame bound near %q", p.peek().text)
	}
}
