package bench

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rfview/internal/engine"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
)

// The shape tests assert the "Holds" columns of EXPERIMENTS.md as work, not
// wall time: which operators the planner picks for each cell of Tables 1 and 2
// and how many rows EXPLAIN ANALYZE saw them move, at sizes small enough to run
// in milliseconds. Every count is a function of n alone, so the tests are
// deterministic and the host's drift cannot reach them.

// shapeSizes are the sequence cardinalities every shape is asserted at: two
// sizes, so a count that merely happens to fit at one n does not pass.
var shapeSizes = []int{60, 150}

// planNode is one operator of an analyzed plan: its name, its full EXPLAIN
// line, the rows it emitted and its inputs.
type planNode struct {
	op   string
	desc string
	rows int
	kids []*planNode
}

var analyzedLine = regexp.MustCompile(`^( *)(\S+)(.*) \(rows=(\d+) time=[0-9.]+ms\)$`)

// analyze runs stmt instrumented and parses the annotated operator tree.
func analyze(t *testing.T, e *engine.Engine, stmt sqlparser.Statement) *planNode {
	t.Helper()
	res, err := e.ExecStmtContext(context.Background(), stmt, engine.WithAnalyze())
	if err != nil {
		t.Fatal(err)
	}
	var root *planNode
	var path []*planNode // path[d] is the last node seen at depth d
	for _, line := range strings.Split(strings.TrimRight(res.Analyzed, "\n"), "\n") {
		if strings.HasPrefix(line, "--") {
			continue
		}
		m := analyzedLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparsed EXPLAIN ANALYZE line %q in:\n%s", line, res.Analyzed)
		}
		rows, _ := strconv.Atoi(m[4])
		n := &planNode{op: m[2], desc: m[2] + m[3], rows: rows}
		depth := len(m[1]) / 2
		if depth == 0 {
			root = n
		} else {
			path[depth-1].kids = append(path[depth-1].kids, n)
		}
		path = append(path[:depth], n)
	}
	if root == nil {
		t.Fatalf("no plan in:\n%s", res.Analyzed)
	}
	return root
}

// find returns the nodes of the tree whose EXPLAIN line starts with prefix,
// in plan order.
func (n *planNode) find(prefix string) []*planNode {
	var out []*planNode
	if strings.HasPrefix(n.desc, prefix) {
		out = append(out, n)
	}
	for _, k := range n.kids {
		out = append(out, k.find(prefix)...)
	}
	return out
}

// ops renders the tree's operator names, one per node in plan order.
func (n *planNode) ops() string {
	s := n.op
	for _, k := range n.kids {
		s += " " + k.ops()
	}
	return s
}

// inputRows are the rows each input of the node emitted.
func (n *planNode) inputRows() []int {
	out := make([]int, len(n.kids))
	for i, k := range n.kids {
		out[i] = k.rows
	}
	return out
}

// allPairsShape is a quadratic cell — Table 1's "self join, no index" and
// Table 2's disjunctive forms: one nested loop evaluating its predicate over
// every pair of two m-row inputs, and no join of the cheaper kind.
func allPairsShape(p *planNode, m int, cheaper string) error {
	nl := p.find("NestedLoopJoin")
	if len(nl) != 1 || len(p.find(cheaper)) != 0 {
		return fmt.Errorf("want one NestedLoopJoin and no %s, plan is: %s", cheaper, p.ops())
	}
	if in := nl[0].inputRows(); len(in) != 2 || in[0] != m || in[1] != m {
		return fmt.Errorf("nested loop inputs %v, want %d x %d pairs", in, m, m)
	}
	return nil
}

// selfJoinIndexed is Table 1's "self join, with index" cell: one index join
// probing W keys per outer row, each unique-index probe yielding at most one
// row, so its output counts the probes that landed inside 1..n.
func selfJoinIndexed(p *planNode, n, w int) error {
	ij := p.find("IndexNestedLoopJoin")
	if len(ij) != 1 || len(p.find("NestedLoopJoin")) != 0 {
		return fmt.Errorf("want one IndexNestedLoopJoin and no nested loop, plan is: %s", p.ops())
	}
	if in := ij[0].inputRows(); len(in) != 1 || in[0] != n {
		return fmt.Errorf("index join outer rows %v, want %d", in, n)
	}
	if got := ij[0].rows; got > n*w || got < n*w-w {
		return fmt.Errorf("index join matched %d probes, want about n*W = %d", got, n*w)
	}
	return nil
}

// TestTable1Shape: the self join is quadratic without the position index and
// about n·W probes with it, and native evaluation reads n rows and plans the
// same either way.
func TestTable1Shape(t *testing.T) {
	const w = 3 // Table1Query's window: 1 PRECEDING .. 1 FOLLOWING
	native, err := Table1Stmt(true)
	if err != nil {
		t.Fatal(err)
	}
	selfJoin, err := Table1Stmt(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range shapeSizes {
		plain, err := NewTable1Engine(n, false)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := NewTable1Engine(n, true)
		if err != nil {
			t.Fatal(err)
		}

		unindexedPlan := analyze(t, plain, selfJoin)
		if err := allPairsShape(unindexedPlan, n, "IndexNestedLoopJoin"); err != nil {
			t.Errorf("n=%d self join without index: %v", n, err)
		}
		if err := selfJoinIndexed(analyze(t, indexed, selfJoin), n, w); err != nil {
			t.Errorf("n=%d self join with index: %v", n, err)
		}
		// The deliberate break: with CREATE INDEX dropped, the indexed cell's
		// shape must not hold.
		if selfJoinIndexed(unindexedPlan, n, w) == nil {
			t.Errorf("n=%d: the indexed shape held on an engine without the index", n)
		}

		a, b := analyze(t, plain, native), analyze(t, indexed, native)
		if a.ops() != "Project Window SeqScan" || a.ops() != b.ops() {
			t.Errorf("n=%d native plans: %q without index, %q with", n, a.ops(), b.ops())
		}
		for _, p := range []*planNode{a, b} {
			if scan, win := p.find("SeqScan")[0], p.find("Window")[0]; scan.rows != n || win.rows != n {
				t.Errorf("n=%d native: scan read %d rows, window emitted %d, want %d each", n, scan.rows, win.rows, n)
			}
		}
	}
}

// joinedRows sums the rows the inner joins of a derivation hand to the
// aggregation: the pairs that survived the predicate.
func joinedRows(joins []*planNode) int {
	total := 0
	for _, j := range joins {
		total += j.rows
	}
	return total
}

// unionShape is a Table 2 "union of simple predicate queries" cell: every
// branch's MOD conjunct is an equi-join the planner hashes, over the view's m
// stored rows on each side.
func unionShape(p *planNode, m int) error {
	u := p.find("UnionAll")
	if len(u) != 1 || len(p.find("NestedLoopJoin")) != 0 {
		return fmt.Errorf("want one UnionAll and no nested loop, plan is: %s", p.ops())
	}
	for i, branch := range u[0].kids {
		hj := branch.find("HashJoin (Inner) ON MOD(")
		if len(hj) != 1 {
			return fmt.Errorf("branch %d does not hash its MOD conjunct: %s", i, branch.ops())
		}
		if in := hj[0].inputRows(); len(in) != 2 || in[0] != m || in[1] != m {
			return fmt.Errorf("branch %d hash join inputs %v, want %d and %d", i, in, m, m)
		}
	}
	return nil
}

// modConjunct matches the residue equi-conjunct of one UNION branch's WHERE.
var modConjunct = regexp.MustCompile(` AND MOD\([^=]*= MOD\(\(s2\.pos \+ \d+\), \d+\)`)

// TestTable2Shape: every UNION branch is a hash join and each disjunctive form
// a nested loop over all pairs of view rows; the forms of one algorithm join
// the same rows, and MaxOA and MinOA stay within a small factor of each other.
func TestTable2Shape(t *testing.T) {
	for _, n := range shapeSizes {
		e, err := NewTable2Engine(n)
		if err != nil {
			t.Fatal(err)
		}
		m := n + 3 // the (2,1) view stores positions 1-h .. n+l: header and trailer included
		joined := map[string]int{}
		for _, st := range Table2Strategies {
			stmt, err := st.Stmt(e, n)
			if err != nil {
				t.Fatal(err)
			}
			p := analyze(t, e, stmt)
			if !strings.HasSuffix(st.Name, "/union") {
				// The OR of residue conditions defeats hashing.
				if err := allPairsShape(p, m, "HashJoin (Inner)"); err != nil {
					t.Errorf("n=%d %s: %v", n, st.Name, err)
				}
				joined[st.Name] = joinedRows(p.find("NestedLoopJoin"))
				continue
			}
			if err := unionShape(p, m); err != nil {
				t.Errorf("n=%d %s: %v", n, st.Name, err)
				continue
			}
			joined[st.Name] = joinedRows(p.find("HashJoin (Inner)"))

			// The deliberate break: without the MOD equi-conjunct a branch has
			// nothing to hash.
			broken := modConjunct.ReplaceAllString(stmt.String(), "")
			if strings.Count(stmt.String(), " AND MOD(")-strings.Count(broken, " AND MOD(") != 2 {
				t.Fatalf("%s: did not strip both MOD conjuncts from:\n%s", st.Name, stmt)
			}
			bs, err := sqlparser.Parse(broken)
			if err != nil {
				t.Fatal(err)
			}
			if unionShape(analyze(t, e, bs), m) == nil {
				t.Errorf("n=%d %s: the hashed shape held without the MOD conjunct", n, st.Name)
			}
		}
		for _, alg := range []string{"MaxOA", "MinOA"} {
			if d, u := joined[alg+"/disjunctive"], joined[alg+"/union"]; d != u {
				t.Errorf("n=%d %s: disjunctive form joined %d rows, union form %d", n, alg, d, u)
			}
		}
		// Each algorithm sums about m²/W view values (W = 4, the view's window
		// size): quadratic in both, neither a real winner.
		lo, hi := joined["MaxOA/union"], joined["MinOA/union"]
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo < m*m/8 || hi > m*m/2 || hi > 2*lo {
			t.Errorf("n=%d joined rows: MaxOA %d, MinOA %d; want both about m²/4 = %d and within 2x",
				n, joined["MaxOA/union"], joined["MinOA/union"], m*m/4)
		}
	}
}

// TestServedDerivationShape: what Table 2 measures as rendered SQL the served
// engine answers with the sequence algebra — one scan of the view's stored
// sequence, header and trailer included, under one Derive that emits the n
// body positions, and nothing relational. Work linear in n where every cell
// of TestTable2Shape is quadratic.
func TestServedDerivationShape(t *testing.T) {
	query, err := parseSelect(Table2Query)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range shapeSizes {
		e, err := newTable2Engine(n, engine.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		p := analyze(t, e, query)
		if p.ops() != "Derive SeqScan" {
			t.Errorf("n=%d: served plan is %q, want one Derive over one scan", n, p.ops())
			continue
		}
		for _, relational := range []string{"NestedLoopJoin", "IndexNestedLoopJoin", "HashJoin", "HashAggregate"} {
			if len(p.find(relational)) != 0 {
				t.Errorf("n=%d: served plan holds a %s: %s", n, relational, p.ops())
			}
		}
		scan, m := p.kids[0], n+3 // the (2,1) view stores positions 1-h .. n+l
		if !strings.Contains(scan.desc, "matseq") || scan.rows != m {
			t.Errorf("n=%d: %q read %d rows, want the %d stored positions of matseq", n, scan.desc, scan.rows, m)
		}
		if want := fmt.Sprintf("Derive view=matseq algo=MinOA Δl=1 Δh=0 Wx=4 parts=1 rows=%d", m); p.desc != want || p.rows != n {
			t.Errorf("n=%d: %q emitted %d rows, want %q emitting %d", n, p.desc, p.rows, want, n)
		}
	}
}

// storedVersions counts the row versions ever appended to a heap: row ids are
// dense and the newest version is live after any write.
func storedVersions(t *testing.T, h *storage.Table) int {
	t.Helper()
	versions := 0
	if err := h.Scan(func(id storage.RowID, _ sqltypes.Row) bool {
		if int(id) >= versions {
			versions = int(id) + 1
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return versions
}

// TestMaintenanceShape: one §2.3 update rewrites a number of view rows bounded
// by the window and the same at every n, while a refresh rewrites all of them.
func TestMaintenanceShape(t *testing.T) {
	const w = 4 // the (2,1) view's window size
	for _, n := range shapeSizes {
		e, err := NewTable2Engine(n)
		if err != nil {
			t.Fatal(err)
		}
		mv, ok := e.Cat.MatView("matseq")
		if !ok {
			t.Fatal("matseq is not registered")
		}
		var touched []int
		e.Views.SetTouchedObserver(func(v float64) { touched = append(touched, int(v)) })

		most := 0
		for i, pos := range []int{1, 2, n / 3, n / 2, n - 1, n} {
			before := storedVersions(t, mv.Table.Heap)
			if _, err := e.Exec(fmt.Sprintf(`UPDATE seq SET val = %d WHERE pos = %d`, 1000+i, pos)); err != nil {
				t.Fatal(err)
			}
			wrote := storedVersions(t, mv.Table.Heap) - before
			if wrote < 1 || wrote > w || touched[i] != wrote {
				t.Errorf("n=%d update at pos %d rewrote %d view rows (maintainer touched %d), want 1..%d",
					n, pos, wrote, touched[i], w)
			}
			if wrote > most {
				most = wrote
			}
		}
		if most != w {
			t.Errorf("n=%d: the widest update band was %d rows, want the window size %d at every n", n, most, w)
		}
		if e.Views.Stale("matseq") {
			t.Fatalf("n=%d: the view went stale", n)
		}

		before := storedVersions(t, mv.Table.Heap)
		if _, err := e.Exec(`REFRESH MATERIALIZED VIEW matseq`); err != nil {
			t.Fatal(err)
		}
		if wrote := storedVersions(t, mv.Table.Heap) - before; wrote != n+w-1 {
			t.Errorf("n=%d refresh rewrote %d view rows, want all %d", n, wrote, n+w-1)
		}
	}
}
