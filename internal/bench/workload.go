// Package bench contains the workload generators and experiment drivers that
// regenerate the paper's evaluation: Table 1 (computing sequence data from
// raw tables — native reporting functionality vs. the Fig. 2 self-join
// simulation, with and without a position index) and Table 2 (deriving a
// sequence query from a materialized sequence view — MaxOA vs. MinOA,
// disjunctive join predicate vs. UNION of simple-predicate queries).
//
// Absolute durations are machine-dependent; the experiments reproduce the
// paper's *shape*: who wins, how the strategies scale, and where behaviour
// crosses over. EXPERIMENTS.md records a paper-vs-measured comparison.
package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"rfview/internal/engine"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
)

// LoadSequenceTable creates seq(pos INTEGER, val INTEGER) with n rows of
// uniform random values (deterministic per seed) inside the engine.
func LoadSequenceTable(e *engine.Engine, n int, seed int64) error {
	if _, err := e.Exec(`CREATE TABLE seq (pos INTEGER, val INTEGER)`); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	const chunk = 1000
	for lo := 1; lo <= n; lo += chunk {
		hi := lo + chunk - 1
		if hi > n {
			hi = n
		}
		var b strings.Builder
		b.WriteString("INSERT INTO seq (pos, val) VALUES ")
		for i := lo; i <= hi; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d)", i, rng.Intn(1000))
		}
		if _, err := e.Exec(b.String()); err != nil {
			return err
		}
	}
	return nil
}

// CreditCardConfig sizes the warehouse workload of the paper's introduction.
type CreditCardConfig struct {
	Customers    int
	Locations    int
	Transactions int
	Seed         int64
}

// LoadCreditCard creates and fills the intro's schema: c_transactions
// (credit-card transactions) and l_locations (shop → city/region mapping).
func LoadCreditCard(e *engine.Engine, cfg CreditCardConfig) error {
	stmts := `
	  CREATE TABLE c_transactions (c_custid INTEGER, c_locid INTEGER, c_date DATE, c_transaction INTEGER);
	  CREATE TABLE l_locations (l_locid INTEGER, l_city VARCHAR(30), l_region VARCHAR(30));
	`
	if _, err := e.ExecAll(stmts); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	regions := []string{"Bavaria", "Saxony", "Hesse", "Berlin"}
	cities := []string{"Erlangen", "Dresden", "Frankfurt", "Berlin", "Munich", "Leipzig"}
	var b strings.Builder
	b.WriteString("INSERT INTO l_locations VALUES ")
	for l := 1; l <= cfg.Locations; l++ {
		if l > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, '%s', '%s')", l,
			cities[rng.Intn(len(cities))], regions[rng.Intn(len(regions))])
	}
	if _, err := e.Exec(b.String()); err != nil {
		return err
	}
	const chunk = 500
	for lo := 0; lo < cfg.Transactions; lo += chunk {
		hi := lo + chunk
		if hi > cfg.Transactions {
			hi = cfg.Transactions
		}
		var tb strings.Builder
		tb.WriteString("INSERT INTO c_transactions VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				tb.WriteString(", ")
			}
			day := 1 + rng.Intn(28)
			month := 1 + rng.Intn(12)
			fmt.Fprintf(&tb, "(%d, %d, DATE '2001-%02d-%02d', %d)",
				1+rng.Intn(cfg.Customers), 1+rng.Intn(cfg.Locations),
				month, day, 5+rng.Intn(500))
		}
		if _, err := e.Exec(tb.String()); err != nil {
			return err
		}
	}
	return nil
}

// timeQuery runs the statement enough times to get a stable reading and
// returns the fastest observed duration plus the rows of the last run.
func timeQuery(e *engine.Engine, stmt sqlparser.Statement, minReps int) (time.Duration, []sqltypes.Row, error) {
	best := time.Duration(0)
	var rows []sqltypes.Row
	reps := 0
	var total time.Duration
	for reps < minReps || (total < 30*time.Millisecond && reps < 20) {
		start := time.Now()
		res, err := e.ExecStmt(stmt)
		d := time.Since(start)
		if err != nil {
			return 0, nil, err
		}
		rows = res.Rows
		if best == 0 || d < best {
			best = d
		}
		total += d
		reps++
	}
	return best, rows, nil
}

// sameSeries reports whether two (pos, value) result sets agree.
func sameSeries(a, b []sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	am := make(map[int64]float64, len(a))
	for _, r := range a {
		am[r[0].Int()] = r[1].Float()
	}
	for _, r := range b {
		v, ok := am[r[0].Int()]
		if !ok {
			return false
		}
		d := v - r[1].Float()
		if d < -1e-6 || d > 1e-6 {
			return false
		}
	}
	return true
}
