package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rfview"
)

// fingerprint is everything the generators make from a seed: the set-up
// scripts and the head of every statement stream.
func fingerprint(seed int64) string {
	var b strings.Builder
	rng := rand.New(rand.NewSource(seed))
	tables := []seqTable{genSeqTable(rng, "seq_a", seqRows), genSeqTable(rng, "seq_b", seqRows)}
	for _, t := range tables {
		b.WriteString(strings.Join(seqScript(t), ";"))
	}
	tx := genTransactions(rng)
	b.WriteString(strings.Join(txScript(rng, tx), ";"))
	streams := []stream{
		&dashStream{dash: dashboard(tables), rng: rand.New(rand.NewSource(seed + 1)), writes: true, client: 1, nClients: 2},
		newDeriveStream(rng, "seq_d"),
		&scanStream{rng: rng},
	}
	for _, s := range streams {
		for i := 0; i < 100; i++ {
			b.WriteString(s.next().sql)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestGeneratorsAreSeeded(t *testing.T) {
	a, b, c := fingerprint(7), fingerprint(7), fingerprint(8)
	if a != b {
		t.Error("same seed gave different data or statements")
	}
	if a == c {
		t.Error("different seeds gave identical data and statements")
	}
}

func TestStreamsKeepTheirShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	d := newDeriveStream(rng, "seq_d")
	for i := 0; i < 5000; i++ {
		st := d.next()
		if seen[st.sql] {
			t.Fatalf("derive stream repeated %q at %d", st.sql, i)
		}
		seen[st.sql] = true
		w := st.wins[0]
		ok := sumDerivable(w.win.Preceding, w.win.Following)
		if w.agg == rfview.Max {
			ok = maxDerivable(w.win.Preceding, w.win.Following)
		}
		if !ok {
			t.Fatalf("statement %d is not derivable: %q", i, st.sql)
		}
	}
	dash := &dashStream{dash: dashboard([]seqTable{{name: "seq_a"}, {name: "seq_b"}}), rng: rng, writes: true, client: 1, nClients: 2}
	writes := 0
	for i := 0; i < 1000; i++ {
		if st := dash.next(); st.write {
			writes++
			if st.pos%2 != 0 || st.pos < 1 || st.pos > seqRows {
				t.Fatalf("client 1 of 2 wrote position %d", st.pos)
			}
		}
	}
	if writes != 100 {
		t.Errorf("%d writes in 1000 statements, want 100", writes)
	}
}

func TestPercentiles(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	// A workload's tail percentile is the highest that keeps ten samples
	// beyond it at its usual sample count: p95 needs 200, p99.9 needs 10000.
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{199, 95, 9}, {200, 95, 10}, {100, 90, 10}, {1000, 99, 10}, {10000, 99.9, 10}, {9999, 99.9, 9}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestSliceRates(t *testing.T) {
	window := 5 * time.Second
	var w sliceWork
	// Slices of 1 s holding 10, 20, 30, 40 and 2 statements.
	for slice, n := range []int{10, 20, 30, 40, 2} {
		for i := 0; i < n; i++ {
			at := time.Duration(slice)*time.Second + time.Duration(i)*time.Millisecond
			w.add(at, at+time.Millisecond, window)
		}
	}
	med, lo, hi := w.rates(window)
	if med != 20 || lo != 2 || hi != 40 {
		t.Errorf("rates = %v, %v, %v; want 20, 2, 40", med, lo, hi)
	}
	// A statement across a boundary counts by its share on each side, and
	// one that runs past the end only for its part inside.
	var x sliceWork
	x.add(900*time.Millisecond, 1300*time.Millisecond, window)
	x.add(4900*time.Millisecond, 5100*time.Millisecond, window)
	if x[0] != 0.25 || x[1] != 0.75 || x[4] != 0.5 {
		t.Errorf("split = %v", x)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "b", StartNs: 30, EndNs: 60},       // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 120},      // sticks out
		{ID: 5, Parent: 2, Name: "a.child", StartNs: 15, EndNs: 25}, // nested
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 20, 3: 30, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	sum := summarize(spans)
	if sum[0].Name != "root" || sum[0].SelfUs != 0.04 || sum[0].BusyUs != 0.1 {
		t.Errorf("summary of root = %+v", sum[0])
	}
}

type fakeRows [][]float64

func (r fakeRows) len() int            { return len(r) }
func (r fakeRows) at(i, j int) float64 { return r[i][j] }

func TestOracleRejectsWrongAnswers(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	w := winSpec{agg: rfview.Sum, win: rfview.Sliding(1, 1)}
	good := fakeRows{{3, 7}, {1, 6}, {2, 10}, {4, 9}, {5, 5}} // any row order
	if err := checkSeqQuery(w, vals, vals, good); err != nil {
		t.Errorf("right answer rejected: %v", err)
	}
	bad := fakeRows{{3, 7}, {1, 6}, {2, 11}, {4, 9}, {5, 5}}
	if err := checkSeqQuery(w, vals, vals, bad); err == nil {
		t.Error("wrong value accepted")
	}
	if err := checkSeqQuery(w, vals, vals, good[:4]); err == nil {
		t.Error("missing row accepted")
	}
	// A read overlapping an increment of position 2 may show either state.
	hi := []float64{5, 2, 4, 2, 3}
	if err := checkSeqQuery(w, vals, hi, fakeRows{{1, 7}, {2, 10}, {3, 8}, {4, 9}, {5, 5}}); err != nil {
		t.Errorf("answer between the two states rejected: %v", err)
	}

	data := []txRow{{1, 1, 1, 0, 10}, {2, 2, 1, 0, 20}, {3, 1, 2, 0, 30}, {4, 1, 1, 0, 3}}
	st := stmt{minAmount: 5, wins: []winSpec{
		{agg: rfview.Sum, win: rfview.Cumul(), part: partCust},
		{agg: rfview.Max, win: rfview.Sliding(1, 0), part: partLoc},
	}}
	if err := checkTxQuery(st, data, fakeRows{{3, 40, 30}, {1, 10, 10}, {2, 20, 20}}); err != nil {
		t.Errorf("right answer rejected: %v", err)
	}
	if err := checkTxQuery(st, data, fakeRows{{3, 40, 30}, {1, 10, 10}, {2, 20, 10}}); err == nil {
		t.Error("wrong value accepted")
	}
	if err := checkTxQuery(st, data, fakeRows{{3, 40, 30}, {1, 10, 10}, {1, 10, 10}}); err == nil {
		t.Error("repeated row accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's definitions one
// list: the driver reads the first, the harness prints by the second.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, harness has %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v, harness has %+v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d = %+v, harness has %+v", i, w, workloads[i])
		}
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}

// TestSmoke runs every workload for half a second, gated and traced. The
// validity guards are logged, not asserted: a run this short completes no
// checkpoint.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts rfserverd and runs all five workloads")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig(root, 3, 0.5)
	cfg.outDir = filepath.Join(root, "benchmark", "out", "smoke")
	cfg.warmup, cfg.minSetups, cfg.setupBudget = 100*time.Millisecond, 1, 0
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if cfg.serverBin, err = buildServer(root, cfg.outDir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, traced := range []bool{false, true} {
		reports, err := runSet(ctx, cfg, workloads, traced)
		if err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, r := range reports {
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", r.Workload, traced, r.Failed, r.Attempted, r.Errors)
			}
			for _, m := range defs {
				v, ok := r.Metrics[m.Name]
				if !ok || (!traced && !(v.Value > 0)) {
					t.Errorf("%s traced=%v: metric %s = %+v", r.Workload, traced, m.Name, v)
				}
			}
			t.Logf("%s traced=%v: %d statements, guards %v", r.Workload, traced, r.Attempted, r.Invalid)
		}
	}
}
