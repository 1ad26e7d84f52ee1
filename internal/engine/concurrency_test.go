package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// derivedQ rides the MaxOA rewrite: the (3,3) window is wider than the
// materialized (2,2) view, so every read goes through derivation.
const derivedQ = `SELECT pos, SUM(val) OVER (ORDER BY pos
  ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING) AS s FROM seq`

// checkAllOnesWindow asserts a (3,3) window-sum result over an all-ones
// dense sequence is internally consistent: positions 1…n each appear once
// and every sum equals its clipped window width. Any torn read — a base row
// visible without its view band, a half-applied refresh — breaks this.
func checkAllOnesWindow(rows map[int64]float64) error {
	n := int64(len(rows))
	if n == 0 {
		return fmt.Errorf("empty result")
	}
	for p := int64(1); p <= n; p++ {
		s, ok := rows[p]
		if !ok {
			return fmt.Errorf("position %d missing from %d-row result", p, n)
		}
		lo, hi := p-3, p+3
		if lo < 1 {
			lo = 1
		}
		if hi > n {
			hi = n
		}
		if want := float64(hi - lo + 1); s != want {
			return fmt.Errorf("pos %d: sum %v, want %v (n=%d)", p, s, want, n)
		}
	}
	return nil
}

// TestConcurrentReadersWithWriter is the locking-discipline stress test: N
// reader goroutines issue view-derived window queries while one writer
// appends rows and periodically refreshes the view. Run under -race. Every
// read must observe a consistent snapshot — entirely pre- or post- some
// write — which checkAllOnesWindow verifies per result.
func TestConcurrentReadersWithWriter(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 50, func(i int) int64 { return 1 })
	mustExec(t, e, `CREATE MATERIALIZED VIEW mv AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM seq`)
	res := mustExec(t, e, derivedQ)
	if res.Derivation == nil {
		t.Fatal("stress query must exercise the derivation path")
	}

	const (
		readers = 4
		inserts = 100
	)
	done := make(chan struct{})
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				// Alternate the derived query with an exact-width one so
				// both the rewrite and the exact-match path run hot.
				q := derivedQ
				if i%2 == 1 && r%2 == 1 {
					q = windowQ
				}
				res, err := e.Exec(q)
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				pairs := make(map[int64]float64, len(res.Rows))
				for _, row := range res.Rows {
					pairs[row[0].Int()] = row[1].Float()
				}
				if q == derivedQ {
					if err := checkAllOnesWindow(pairs); err != nil {
						errc <- fmt.Errorf("reader %d: inconsistent read: %v", r, err)
						return
					}
				}
				// Hits of one entry share its rewritten text, set by
				// whichever reader asks first.
				if res.Derivation != nil && !strings.Contains(res.Rewritten(), " FROM mv ") {
					errc <- fmt.Errorf("reader %d: rewritten %q", r, res.Rewritten())
					return
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < inserts; i++ {
			pos := 51 + i
			if _, err := e.Exec(fmt.Sprintf(`INSERT INTO seq (pos, val) VALUES (%d, 1)`, pos)); err != nil {
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
			if i%15 == 14 {
				if _, err := e.Exec(`REFRESH MATERIALIZED VIEW mv`); err != nil {
					errc <- fmt.Errorf("writer refresh: %v", err)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Steady state: all 150 rows present, view fresh, derivation still on.
	res = mustExec(t, e, derivedQ)
	if len(res.Rows) != 150 || res.Derivation == nil {
		t.Fatalf("final state: %d rows, derivation=%v", len(res.Rows), res.Derivation != nil)
	}
	pairs := make(map[int64]float64, len(res.Rows))
	for _, row := range res.Rows {
		pairs[row[0].Int()] = row[1].Float()
	}
	if err := checkAllOnesWindow(pairs); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCacheChurn hammers the plan cache from many goroutines with
// overlapping query sets while a writer invalidates entries, catching data
// races in the cache itself and in shared cached plans/results.
func TestConcurrentCacheChurn(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 30, func(i int) int64 { return int64(i) })
	// Room for every query: entries live long enough to be revalidated and
	// invalidated by the writer (eviction itself is covered in qcache).
	e.SetPlanCacheCapacity(8)

	queries := []string{
		`SELECT pos, val FROM seq`,
		`SELECT pos, val FROM seq WHERE pos <= 10`,
		`SELECT pos, val FROM seq WHERE pos > 5`,
		`SELECT COUNT(pos) AS n FROM seq`,
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq`,
		`SELECT pos, val FROM seq WHERE pos = 7`,
	}
	// Every worker mixes reads with the occasional INSERT, so invalidation
	// is exercised under any goroutine schedule: a worker's own post-INSERT
	// re-read of a query it cached earlier must revalidate and miss.
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				sql := queries[(g+i)%len(queries)]
				if i%20 == 19 {
					sql = fmt.Sprintf(`INSERT INTO seq (pos, val) VALUES (%d, %d)`, 100+g*150+i, i)
				}
				if _, err := e.Exec(sql); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := e.PlanCacheStats()
	if st.Hits == 0 || st.Invalidations == 0 {
		t.Fatalf("churn must exercise both hits and invalidations: %+v", st)
	}
}
