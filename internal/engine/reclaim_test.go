package engine

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rfview/internal/storage"
)

// deriveSlots reads the directory slots the Derive of an EXPLAIN ANALYZE
// plan visited.
func deriveSlots(t *testing.T, plan string) int {
	t.Helper()
	m := regexp.MustCompile(`Derive view=\S+ .* slots=(\d+)`).FindStringSubmatch(plan)
	if m == nil {
		t.Fatalf("no Derive slots= in the plan:\n%s", plan)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// TestReclaimBoundsVersions is the uptime bound: 100k point UPDATEs of a
// 200-row base with two views and no open transaction leave every heap with
// at most twice its live rows in its slot directory, a derived read's scan
// visits no more slots than twice what it did before the updates, the
// answers stay exact, and Close leaves no budget, pin or heap file behind.
// A starved pool sends the retired and reused pages through eviction.
func TestReclaimBoundsVersions(t *testing.T) {
	updates := 100_000
	if testing.Short() {
		updates = 5_000
	}
	const n = 200
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.SpillDir = dir
	opts.PageSize = storage.MinPageSize
	opts.PageCacheBytes = 16 << 10
	opts.MemoryBudgetBytes = 1 << 20
	e := New(opts)
	vals := make([]int64, n+1)
	loadSeq(t, e, n, func(i int) int64 { vals[i] = int64(i % 7); return vals[i] })
	mustExec(t, e, `CREATE UNIQUE INDEX seq_pk ON seq (pos)`)
	mustExec(t, e, `CREATE MATERIALIZED VIEW mv AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM seq`)
	mustExec(t, e, `CREATE MATERIALIZED VIEW mx AS
	  SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM seq`)

	check := func(when string) int {
		t.Helper()
		res, err := e.ExecContext(context.Background(), derivedQ, WithAnalyze())
		if err != nil {
			t.Fatal(err)
		}
		if res.Derivation == nil || len(res.Rows) != n {
			t.Fatalf("%s: %d rows, derived=%v", when, len(res.Rows), res.Derivation != nil)
		}
		for _, r := range res.Rows {
			p, want := r[0].Int(), int64(0)
			for k := max(1, p-3); k <= min(n, p+3); k++ {
				want += vals[k]
			}
			if got := r[1].Float(); got != float64(want) {
				t.Fatalf("%s: pos %d sums to %v, want %d", when, p, got, want)
			}
		}
		return deriveSlots(t, res.Analyzed)
	}
	before := check("before the updates")

	rng := rand.New(rand.NewSource(14))
	for i := 0; i < updates; i++ {
		p, v := 1+rng.Intn(n), int64(rng.Intn(100))
		vals[p] = v
		mustExec(t, e, fmt.Sprintf(`UPDATE seq SET val = %d WHERE pos = %d`, v, p))
	}
	if after := check(fmt.Sprintf("after %d updates", updates)); after > 2*before {
		t.Fatalf("the derived read visited %d slots after %d updates, %d before", after, updates, before)
	}
	for _, name := range e.Cat.Tables() {
		tbl, err := e.Cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if st := tbl.Heap.Versions(); st.Slots > 2*st.Live || st.Reclaimed == 0 {
			t.Fatalf("%s after %d updates: %+v", name, updates, st)
		}
	}
	if st := e.TxnStats(); st.VersionsReclaimed == 0 || st.HorizonLag != 0 {
		t.Fatalf("txn stats after the updates with nothing open: %+v", st)
	}

	if pinned := e.StorageStats().PagesPinned; pinned != 0 {
		t.Fatalf("%d pages pinned with no statement running", pinned)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if used := e.SpillBudget().Used(); used != 0 {
		t.Fatalf("%d budget bytes still charged after Close", used)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		t.Errorf("%s left behind after Close", ent.Name())
	}
}

// TestRefreshStampsInsidePublication forces the interleaving behind the
// old TestConcurrentReadersWithWriter flake: a lock-free read that runs
// while a REFRESH holds its rebuilt rows pending, before the commit's
// publication window opens. The view must still answer it from the rows
// visible at its snapshot — derived, from the result cache or not — instead
// of calling itself newer than the snapshot.
func TestRefreshStampsInsidePublication(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 50, func(int) int64 { return 1 })
	mustExec(t, e, `CREATE MATERIALIZED VIEW mv AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM seq`)
	read := func(when string) {
		t.Helper()
		res, err := e.Exec(derivedQ)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if res.Derivation == nil {
			t.Fatalf("%s: the read did not derive from the fresh view", when)
		}
		pairs := make(map[int64]float64, len(res.Rows))
		for _, row := range res.Rows {
			pairs[row[0].Int()] = row[1].Float()
		}
		if err := checkAllOnesWindow(pairs); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	for _, cached := range []bool{false, true} {
		if !cached {
			e.InvalidatePlans()
		} else {
			read("warming the cache")
		}
		e.mu.Lock()
		tx := e.newTxn()
		stamp, err := e.Views.RefreshTx(context.Background(), tx, "mv")
		if err != nil {
			e.mu.Unlock()
			t.Fatal(err)
		}
		read(fmt.Sprintf("cached=%v, between the refresh and its commit", cached))
		err = e.commitTxnLocked(tx, false, stamp)
		e.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		read(fmt.Sprintf("cached=%v, after the refresh", cached))
	}
	if why := e.Views.StaleAt("mv", e.Cat.Clock().Now()); why != "" {
		t.Fatalf("the refreshed view does not answer at the latest epoch: %s", why)
	}
	if !strings.Contains(mustExec(t, e, `EXPLAIN `+derivedQ).Plan, "Derive view=mv") {
		t.Fatal("the refreshed view does not derive")
	}
}
