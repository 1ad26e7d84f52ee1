package exec

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rfview/internal/core"
	"rfview/internal/expr"
	"rfview/internal/spill"
	"rfview/internal/sqltypes"
)

// This is the reference-model oracle of the window operator's ordering: the
// expected value of every output row comes from internal/core's naive
// evaluation (core.ComputeNaive over the partition's raw values in order),
// with the partitions and their order built here by a map and a stable
// library sort over a comparator written out below — not from another
// configuration of the engine. Every plan shape the operator runs in must
// agree with it: unshared, the three shared-sort consumer shapes, one worker
// and two, with and without a 2 KiB budget — under which every partition is
// still ordered in memory, one of them longer than the spill sorter's
// minimum run, and the Window writes no run file. The key columns include
// what only a total order sorts: NaN, ±0 and Int/Float-mixed order keys, the
// mix around 2⁵³ where a float64 image rounds, and VARCHAR keys, which take
// the encoded sort. The arguments cover what the §2.2 kernels
// meet: NULLs, a CASE-mixed INT/FLOAT, fractional and NaN-bearing FLOATs,
// and DATE and VARCHAR under MIN/MAX.

// refSpec is one ORDER BY key of the reference model.
type refSpec struct {
	col         int // column in the (p, k, k2, v) row
	desc, nlast bool
}

// refCmp orders two key values the way SQL does: strings byte by byte, and
// numbers numerically and exactly, an INTEGER against a FLOAT too, -0.0
// equal to +0.0, and a NaN equal to a NaN and above every number.
func refCmp(a, b sqltypes.Datum) int {
	if a.Typ() == sqltypes.String {
		return strings.Compare(a.Str(), b.Str())
	}
	isNaN := func(d sqltypes.Datum) bool { return d.Typ() == sqltypes.Float && math.IsNaN(d.Float()) }
	if an, bn := isNaN(a), isNaN(b); an || bn {
		switch {
		case an && bn:
			return 0
		case an:
			return 1
		}
		return -1
	}
	exact := func(d sqltypes.Datum) *big.Float {
		if d.Typ() == sqltypes.Float {
			return big.NewFloat(d.Float())
		}
		return new(big.Float).SetInt64(d.Int())
	}
	return exact(a).Cmp(exact(b))
}

// refArg is one shape of the window functions' argument: the expression over
// the (p, k, k2, v, f, d, s) row, whether v draws NULLs, what the model sees
// for a row (nil = NULL), the type it is declared and answered as (an
// INTEGER/FLOAT mix is FLOAT), and the relative error a SUM or AVG answer may
// carry. A minmax argument is evaluated under MIN, MAX and COUNT only.
type refArg struct {
	name, expr string
	nulls      bool
	val        func(row sqltypes.Row) *float64
	typ        sqltypes.Type
	tol        float64
	minmax     bool
}

// refColumns are the (p, k, k2, v, f, d, s) row's columns past the key ones:
// v an INTEGER, and f, d and s FLOAT, DATE and VARCHAR values drawn with it.
const refColumns = 7

func refArgs() []refArg {
	col := func(c int) func(row sqltypes.Row) *float64 {
		return func(row sqltypes.Row) *float64 {
			if row[c].IsNull() {
				return nil
			}
			f := refValue(row[c])
			return &f
		}
	}
	v := col(3)
	return []refArg{
		{name: "int", expr: "v", val: v, typ: sqltypes.Int},
		{name: "null", expr: "v", nulls: true, val: v, typ: sqltypes.Int},
		// Int on some rows, Float on others: the DECIMAL stand-in.
		{name: "case-mixed", expr: "CASE WHEN k2 < 2 THEN v ELSE v + 0.5 END", val: func(row sqltypes.Row) *float64 {
			f := v(row)
			if row[2].Int() >= 2 {
				*f += 0.5
			}
			return f
		}, typ: sqltypes.Float},
		// Tenths: no sum of them is exact, so the slide and the reference
		// round differently.
		{name: "float-frac", expr: "f", nulls: true, val: col(4), typ: sqltypes.Float, tol: 1e-12},
		{name: "float-nan", expr: "f", val: col(4), typ: sqltypes.Float, minmax: true},
		{name: "date", expr: "d", nulls: true, val: col(5), typ: sqltypes.Date, minmax: true},
		{name: "varchar", expr: "s", nulls: true, val: col(6), typ: sqltypes.String, minmax: true},
	}
}

// refValue is the model's value of a FLOAT, INTEGER, DATE or VARCHAR datum:
// the number itself, the day, or the number a drawn string spells.
func refValue(d sqltypes.Datum) float64 {
	switch d.Typ() {
	case sqltypes.Date:
		return float64(d.Int())
	case sqltypes.String:
		var x float64
		fmt.Sscanf(d.Str(), "s%f", &x)
		return x
	}
	return d.Float()
}

// refRow draws the row's argument columns from v: f is v/10 for the
// fractional argument and v/4 or, now and then, a NaN for the NaN-bearing
// one; d and s are v as a day and as a string that sorts like the number.
func refRow(rng *rand.Rand, arg refArg, p, k, k2, v sqltypes.Datum) sqltypes.Row {
	f, d, s := sqltypes.NullDatum, sqltypes.NullDatum, sqltypes.NullDatum
	if !v.IsNull() {
		f = sqltypes.NewFloat(float64(v.Int()) / 10)
		if arg.name == "float-nan" {
			f = sqltypes.NewFloat(float64(v.Int()) / 4)
			if rng.Intn(10) == 0 {
				f = sqltypes.NewFloat(math.NaN())
			}
		}
		d, s = sqltypes.NewDate(11000+v.Int()), sqltypes.NewString(fmt.Sprintf("s%04d", v.Int()))
	}
	return sqltypes.Row{p, k, k2, v, f, d, s}
}

// refAggs are the aggregates arg is evaluated under, one per window of
// refFuncs.
func refAggs(arg refArg, aggs []core.Agg) []core.Agg {
	if !arg.minmax {
		return aggs
	}
	out := make([]core.Agg, len(aggs))
	for f, a := range aggs {
		switch a {
		case core.Sum:
			out[f] = core.Min
		case core.Avg:
			out[f] = core.Max
		default:
			out[f] = a
		}
	}
	return out
}

// refMatch reports whether the answer d is the model's w (nil = NULL): bit
// for bit, a NaN for a NaN, and within arg's tolerance for SUM and AVG.
func refMatch(arg refArg, agg core.Agg, d sqltypes.Datum, w *float64) bool {
	if d.IsNull() || w == nil {
		return d.IsNull() == (w == nil)
	}
	got := refValue(d)
	switch {
	case math.IsNaN(*w):
		return math.IsNaN(got)
	case arg.tol > 0 && (agg == core.Sum || agg == core.Avg):
		return math.Abs(got-*w) <= arg.tol*max(1, math.Abs(*w))
	}
	return math.Float64bits(got) == math.Float64bits(*w)
}

// refExpected returns, per input row and per window function, the value the
// reference model assigns it; nil is NULL. SQL aggregates skip NULLs, so the
// model sees a NULL argument as 0 under SUM and ±Inf under MIN/MAX, and a
// frame without a non-NULL value answers NULL (COUNT: 0). A NaN is a value:
// it answers NaN under MIN and MAX.
func refExpected(t *testing.T, rows []sqltypes.Row, specs []refSpec, arg refArg, wins []core.Window, aggs []core.Agg) [][]*float64 {
	t.Helper()
	parts := map[string][]int{}
	for i, row := range rows {
		key := fmt.Sprintf("%d|%s", row[0].Typ(), row[0])
		parts[key] = append(parts[key], i)
	}
	want := make([][]*float64, len(rows))
	for _, idx := range parts {
		sort.SliceStable(idx, func(x, y int) bool {
			for _, s := range specs {
				a, b := rows[idx[x]][s.col], rows[idx[y]][s.col]
				if a.IsNull() || b.IsNull() {
					if a.IsNull() != b.IsNull() {
						return a.IsNull() != s.nlast
					}
					continue
				}
				c := refCmp(a, b)
				if s.desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		naive := func(w core.Window, agg core.Agg, null float64, val func(float64) float64) []float64 {
			raw := make([]float64, len(idx))
			for j, ri := range idx {
				raw[j] = null
				if v := arg.val(rows[ri]); v != nil {
					raw[j] = val(*v)
				}
			}
			seq, err := core.ComputeNaive(raw, w, agg)
			if err != nil {
				t.Fatal(err)
			}
			return seq.Body()
		}
		self := func(v float64) float64 { return v }
		for f := range wins {
			present := naive(wins[f], core.Sum, 0, func(float64) float64 { return 1 })
			var body []float64
			switch aggs[f] {
			case core.Count:
				body = present
			case core.Sum, core.Avg:
				body = naive(wins[f], core.Sum, 0, self)
			case core.Min:
				body = naive(wins[f], core.Min, math.Inf(1), self)
			case core.Max:
				body = naive(wins[f], core.Max, math.Inf(-1), self)
			}
			for j := range body {
				var v *float64
				if aggs[f] == core.Count || present[j] > 0 {
					if v = &body[j]; aggs[f] == core.Avg {
						*v /= present[j]
					}
				}
				want[idx[j]] = append(want[idx[j]], v)
			}
		}
	}
	return want
}

// refScenario is one key-column shape. gen draws the ORDER BY key of a row of
// partition part.
type refScenario struct {
	name string
	ktyp sqltypes.Type
	gen  func(rng *rand.Rand, part int) sqltypes.Datum
}

func refScenarios() []refScenario {
	nullOr := func(rng *rand.Rand, d sqltypes.Datum) sqltypes.Datum {
		if rng.Intn(6) == 0 {
			return sqltypes.NullDatum
		}
		return d
	}
	return []refScenario{
		{"int-dups-nulls", sqltypes.Int, func(rng *rand.Rand, _ int) sqltypes.Datum {
			return nullOr(rng, sqltypes.NewInt(int64(rng.Intn(12)-6)))
		}},
		{"int-extremes", sqltypes.Int, func(rng *rand.Rand, _ int) sqltypes.Datum {
			// A subtracting comparator overflows on these pairs.
			return []sqltypes.Datum{sqltypes.NewInt(math.MinInt64), sqltypes.NewInt(math.MaxInt64),
				sqltypes.NewInt(-1), sqltypes.NewInt(0), sqltypes.NewInt(1), sqltypes.NewInt(math.MinInt64 + 1)}[rng.Intn(6)]
		}},
		{"date-nulls", sqltypes.Date, func(rng *rand.Rand, _ int) sqltypes.Datum {
			return nullOr(rng, sqltypes.NewDate(int64(11000+rng.Intn(20))))
		}},
		{"float-nulls", sqltypes.Float, func(rng *rand.Rand, _ int) sqltypes.Datum {
			return nullOr(rng, sqltypes.NewFloat(float64(rng.Intn(16)-8)/4))
		}},
		{"float-signed-zero", sqltypes.Float, func(rng *rand.Rand, _ int) sqltypes.Datum {
			return sqltypes.NewFloat([]float64{math.Copysign(0, -1), 0, 1.5, -1.5, math.Inf(1), math.Inf(-1)}[rng.Intn(6)])
		}},
		{"float-nan", sqltypes.Float, func(rng *rand.Rand, _ int) sqltypes.Datum {
			return nullOr(rng, sqltypes.NewFloat([]float64{math.NaN(), -math.NaN(), 7, -7, 0, math.Inf(1)}[rng.Intn(6)]))
		}},
		{"int-float-mix", sqltypes.Float, func(rng *rand.Rand, _ int) sqltypes.Datum {
			if v := int64(rng.Intn(10)); rng.Intn(2) == 0 {
				return sqltypes.NewInt(v)
			} else {
				return sqltypes.NewFloat(float64(v) + []float64{0, 0.5}[rng.Intn(2)])
			}
		}},
		{"int-float-mix-2^53", sqltypes.Float, func(rng *rand.Rand, _ int) sqltypes.Datum {
			// 2⁵³+1 rounds to 2⁵³ as a float64: only the residual orders it.
			return []sqltypes.Datum{sqltypes.NewInt(1<<53 + 1), sqltypes.NewInt(1 << 53), sqltypes.NewFloat(1 << 53),
				sqltypes.NewFloat(1<<53 + 2), sqltypes.NewInt(math.MaxInt64), sqltypes.NewFloat(1 << 63), sqltypes.NewFloat(math.NaN())}[rng.Intn(7)]
		}},
		{"varchar", sqltypes.String, func(rng *rand.Rand, _ int) sqltypes.Datum {
			// Prefixes, an empty string, a NUL and bytes above ASCII: the
			// memcomparable encoding must order them as the bytes do.
			return nullOr(rng, sqltypes.NewString([]string{"", "a", "ab", "a\x00", "b", "B", "é", "zz", "z"}[rng.Intn(9)]))
		}},
	}
}

// refPlans builds the operator's plan shapes over rows: the plain Window and
// the three consumer shapes of a shared-sort plan.
func refPlans(schema *expr.Schema, rows []sqltypes.Row, pb []expr.Expr, ob []SortKey, funcs []WindowFunc, p, v expr.Expr) map[string]func() Operator {
	classKeys := append([]SortKey{{Expr: p}}, ob...)
	refined := append(append([]SortKey{}, classKeys...), SortKey{Expr: v, Desc: true})
	return map[string]func() Operator{
		"unshared": func() Operator { return NewWindow(valuesOp(schema, rows...), pb, ob, funcs) },
		// The class sort refines the member's order with a further key: ties
		// arrive out of input order and must be normalized back.
		"shared-presorted": func() Operator { return sharedStack(schema, rows, pb, ob, refined, funcs, true) },
		// The member's keys are the class sort's, read off its metadata.
		"shared-meta-exact": func() Operator {
			op, _ := sharedStackMeta(schema, rows, pb, ob, classKeys, funcs, true, 1)
			return op
		},
		// The class sort orders the partitions by something else entirely.
		"shared-segmented": func() Operator {
			return sharedStack(schema, rows, pb, ob, []SortKey{{Expr: p}, {Expr: v, Desc: true}}, funcs, false)
		},
	}
}

// setRunOptions stamps the budget and worker count on every Sort and Window
// of the plan and returns the plan's Window.
func setRunOptions(op Operator, cfg *spill.Config, workers int) *Window {
	var win *Window
	for ; op != nil; op = op.Children()[0] {
		switch o := op.(type) {
		case *Window:
			o.Spill, o.Parallelism, win = cfg, workers, o
		case *Sort:
			o.Spill = cfg
		}
		if len(op.Children()) == 0 {
			break
		}
	}
	return win
}

// refFuncs returns the reference model's five window functions: each
// aggregate, its window as core states it and as the operator's frame.
func refFuncs() ([]core.Window, []core.Agg, []FrameSpec) {
	return []core.Window{core.Cumul(), core.Sliding(2, 1), core.Sliding(0, 3), core.Sliding(1, 1), core.Sliding(3, 0)},
		[]core.Agg{core.Sum, core.Min, core.Max, core.Count, core.Avg},
		[]FrameSpec{
			DefaultFrame(true),
			{Start: FrameBound{Kind: BoundPreceding, Offset: 2}, End: FrameBound{Kind: BoundFollowing, Offset: 1}},
			{Start: FrameBound{Kind: BoundCurrentRow}, End: FrameBound{Kind: BoundFollowing, Offset: 3}},
			{Start: FrameBound{Kind: BoundPreceding, Offset: 1}, End: FrameBound{Kind: BoundFollowing, Offset: 1}},
			{Start: FrameBound{Kind: BoundPreceding, Offset: 3}, End: FrameBound{Kind: BoundCurrentRow}},
		}
}

func TestWindowOrderingAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20020226))
	wins, aggs, frames := refFuncs()
	for _, sc := range refScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			schema := expr.NewSchema(
				expr.ColInfo{Name: "p", Type: sqltypes.Int}, expr.ColInfo{Name: "k", Type: sc.ktyp},
				expr.ColInfo{Name: "k2", Type: sqltypes.Int}, expr.ColInfo{Name: "v", Type: sqltypes.Int},
				expr.ColInfo{Name: "f", Type: sqltypes.Float}, expr.ColInfo{Name: "d", Type: sqltypes.Date},
				expr.ColInfo{Name: "s", Type: sqltypes.String},
			)
			col := func(name string) expr.Expr { return mustCompile(t, name, schema) }
			cfg := spillCfg(t, 2<<10)
			cfg.MinRunRows = 0 // the sorter's own floor
			args := refArgs()
			for trial := 0; trial < 3*len(args); trial++ {
				// Every argument shape meets every NULLS placement below
				// (len(args) is prime to 3).
				arg := args[trial%len(args)]
				aggs := refAggs(arg, aggs)
				funcs := make([]WindowFunc, len(wins))
				for f := range funcs {
					funcs[f] = WindowFunc{Name: aggs[f].String(), Arg: col(arg.expr), Frame: frames[f], OutName: fmt.Sprintf("w%d", f)}
				}
				// Shuffled rows over a few partitions, one of them keyed NULL
				// and one, partition 0, longer than the sorter's minimum run.
				n, nparts := 150+rng.Intn(250), 3+rng.Intn(4)
				hot := rng.Perm(n)
				rows := make([]sqltypes.Row, n)
				for i := range rows {
					part := rng.Intn(nparts)
					if hot[i] <= cfg.MinRun() {
						part = 0
					}
					p := sqltypes.NewInt(int64(part) * 1000)
					if part == 1 {
						p = sqltypes.NullDatum
					}
					v := sqltypes.NewInt(int64(rng.Intn(1000)))
					if arg.nulls && rng.Intn(5) == 0 {
						v = sqltypes.NullDatum
					}
					rows[i] = refRow(rng, arg, p, sc.gen(rng, part), sqltypes.NewInt(int64(rng.Intn(4))), v)
				}
				// ORDER BY k [DESC] [NULLS FIRST|LAST] [, k2 DESC].
				key := SortKey{Expr: col("k"), Desc: trial%2 == 1, Nulls: NullsPlacement(trial % 3)}
				ob, specs := []SortKey{key}, []refSpec{{1, key.Desc, key.nullsLast()}}
				if trial%5 >= 2 {
					ob, specs = append(ob, SortKey{Expr: col("k2"), Desc: true}), append(specs, refSpec{2, true, true})
				}
				want := refExpected(t, rows, specs, arg, wins, aggs)

				for name, plan := range refPlans(schema, rows, []expr.Expr{col("p")}, ob, funcs, col("p"), col("v")) {
					for _, workers := range []int{1, 2} {
						for _, budget := range []*spill.Config{nil, cfg} {
							label := fmt.Sprintf("trial %d (%s, arg %s) %s workers=%d budget=%v", trial, key, arg.name, name, workers, budget != nil)
							op, stats, runs := plan(), &WindowStats{}, cfg.Stats.Runs.Load()
							setRunOptions(op, budget, workers).Stats = stats
							got, err := Collect(op)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if len(got) != n {
								t.Fatalf("%s: %d rows, want %d", label, len(got), n)
							}
							decl := op.Schema().Cols[refColumns:]
							for f := range funcs {
								if typ := expr.AggResultType(funcs[f].Name, arg.typ); decl[f].Type != typ {
									t.Fatalf("%s: %s is declared %s, want %s", label, funcs[f], decl[f].Type, typ)
								}
							}
							for i, row := range got {
								for f := range funcs {
									v, w := row[refColumns+f], want[i][f]
									if !refMatch(arg, aggs[f], v, w) || !v.IsNull() && v.Typ() != decl[f].Type {
										t.Fatalf("%s: row %d (%s) %s = %s, reference model says %v", label, i, rows[i], funcs[f], v, fmtRef(w))
									}
								}
							}
							if budget != nil {
								if used := cfg.Budget.Used(); used != 0 {
									t.Fatalf("%s: %d budget bytes leaked", label, used)
								}
								// Only a class Sort below may spill.
								if got := cfg.Stats.Runs.Load() - runs; name == "unshared" && got != 0 {
									t.Fatalf("%s: the Window wrote %d spill runs", label, got)
								}
							}
							if name != "unshared" {
								continue
							}
							// The path taken is part of the contract, budget or
							// none: fixed-width keys — a NaN and a mix among
							// them — sort typed, VARCHAR keys encoded.
							typed, all := stats.TypedSorts.Load(), stats.NormalizedSorts.Load()
							want := all
							if sc.ktyp == sqltypes.String {
								want = 0
							}
							if all == 0 || typed != want {
								t.Fatalf("%s: %d of %d sorts typed, want %d", label, typed, all, want)
							}
						}
					}
				}
			}
		})
	}
}

func fmtRef(w *float64) string {
	if w == nil {
		return "NULL"
	}
	return fmt.Sprint(*w)
}
