package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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
// and two, with and without a 64 KiB budget. The comparator sort and the
// boxed accumulators are fallbacks the data selects, so the input row-sets
// are what reaches them: NaN and Int/Float-mixed order keys, NULL and
// CASE-mixed arguments.

// refSpec is one ORDER BY key of the reference model.
type refSpec struct {
	col         int // column in the (p, k, k2, v) row
	desc, nlast bool
}

// refCmp orders two key values the way SQL does: numerically, Int against
// Int exactly, -0.0 equal to +0.0, and a NaN — which compares neither less
// nor greater — equal to everything.
func refCmp(a, b sqltypes.Datum) int {
	if a.Typ() != sqltypes.Float && b.Typ() != sqltypes.Float {
		switch x, y := a.Int(), b.Int(); {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
	switch x, y := a.Float(), b.Float(); {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// refArg is one shape of the window functions' argument: the expression over
// the (p, k, k2, v) row, whether v draws NULLs, what the model sees for a row
// (nil = NULL), and whether the data must push the operator onto the boxed
// accumulators.
type refArg struct {
	name, expr string
	nulls      bool
	val        func(row sqltypes.Row) *float64
	boxed      bool
}

func refArgs() []refArg {
	v := func(row sqltypes.Row) *float64 {
		if row[3].IsNull() {
			return nil
		}
		f := row[3].Float()
		return &f
	}
	return []refArg{
		{"int", "v", false, v, false},
		{"null", "v", true, v, true},
		// Int on some rows, Float on others: the DECIMAL stand-in.
		{"case-mixed", "CASE WHEN k2 < 2 THEN v ELSE v + 0.5 END", false, func(row sqltypes.Row) *float64 {
			f := v(row)
			if row[2].Int() >= 2 {
				*f += 0.5
			}
			return f
		}, true},
	}
}

// refExpected returns, per input row and per window function, the value the
// reference model assigns it; nil is NULL. SQL aggregates skip NULLs, so the
// model sees a NULL argument as 0 under SUM and ±Inf under MIN/MAX, and a
// frame without a non-NULL value answers NULL (COUNT: 0).
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
// partition part; want is the ordering the unshared, unbudgeted operator
// must take for it.
type refScenario struct {
	name string
	ktyp sqltypes.Type
	gen  func(rng *rand.Rand, part int) sqltypes.Datum
	want sortPath
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
		}, sortTyped},
		{"int-extremes", sqltypes.Int, func(rng *rand.Rand, _ int) sqltypes.Datum {
			// A subtracting comparator overflows on these pairs.
			return []sqltypes.Datum{sqltypes.NewInt(math.MinInt64), sqltypes.NewInt(math.MaxInt64),
				sqltypes.NewInt(-1), sqltypes.NewInt(0), sqltypes.NewInt(1), sqltypes.NewInt(math.MinInt64 + 1)}[rng.Intn(6)]
		}, sortTyped},
		{"date-nulls", sqltypes.Date, func(rng *rand.Rand, _ int) sqltypes.Datum {
			return nullOr(rng, sqltypes.NewDate(int64(11000+rng.Intn(20))))
		}, sortTyped},
		{"float-nulls", sqltypes.Float, func(rng *rand.Rand, _ int) sqltypes.Datum {
			return nullOr(rng, sqltypes.NewFloat(float64(rng.Intn(16)-8)/4))
		}, sortTyped},
		{"float-signed-zero", sqltypes.Float, func(rng *rand.Rand, _ int) sqltypes.Datum {
			return sqltypes.NewFloat([]float64{math.Copysign(0, -1), 0, 1.5, -1.5, math.Inf(1), math.Inf(-1)}[rng.Intn(6)])
		}, sortTyped},
		{"float-nan", sqltypes.Float, func(rng *rand.Rand, part int) sqltypes.Datum {
			// NaN ties with every value, so a partition that mixes it with two
			// distinct numbers has no single right order. Partition 0 holds
			// NaN and one number only; the others hold ordinary numbers and
			// ride the same operator-wide fallback.
			if part == 0 {
				return sqltypes.NewFloat([]float64{math.NaN(), 7}[rng.Intn(2)])
			}
			return sqltypes.NewFloat(float64(rng.Intn(10)))
		}, sortComparator},
		{"int-float-mix", sqltypes.Float, func(rng *rand.Rand, _ int) sqltypes.Datum {
			if v := int64(rng.Intn(10)); rng.Intn(2) == 0 {
				return sqltypes.NewInt(v)
			} else {
				return sqltypes.NewFloat(float64(v) + []float64{0, 0.5}[rng.Intn(2)])
			}
		}, sortComparator},
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
			)
			col := func(name string) expr.Expr { return mustCompile(t, name, schema) }
			cfg := spillCfg(t, 64<<10)
			for trial := 0; trial < 9; trial++ {
				// Every argument shape meets every NULLS placement below.
				arg := refArgs()[(trial+trial/3)%3]
				funcs := make([]WindowFunc, len(wins))
				for f := range funcs {
					funcs[f] = WindowFunc{Name: aggs[f].String(), Arg: col(arg.expr), Frame: frames[f], OutName: fmt.Sprintf("w%d", f)}
				}
				// Shuffled rows over a few partitions, one of them keyed NULL.
				n, nparts := 150+rng.Intn(250), 3+rng.Intn(4)
				rows := make([]sqltypes.Row, n)
				for i := range rows {
					part := rng.Intn(nparts)
					p := sqltypes.NewInt(int64(part) * 1000)
					if part == 1 {
						p = sqltypes.NullDatum
					}
					v := sqltypes.NewInt(int64(rng.Intn(1000)))
					if arg.nulls && rng.Intn(5) == 0 {
						v = sqltypes.NullDatum
					}
					rows[i] = sqltypes.Row{p, sc.gen(rng, part), sqltypes.NewInt(int64(rng.Intn(4))), v}
				}
				// ORDER BY k [DESC] [NULLS FIRST|LAST] [, k2 DESC].
				key := SortKey{Expr: col("k"), Desc: trial%2 == 1, Nulls: NullsPlacement(trial % 3)}
				ob, specs := []SortKey{key}, []refSpec{{1, key.Desc, key.nullsLast()}}
				if trial >= 3 {
					ob, specs = append(ob, SortKey{Expr: col("k2"), Desc: true}), append(specs, refSpec{2, true, true})
				}
				want := refExpected(t, rows, specs, arg, wins, aggs)

				for name, plan := range refPlans(schema, rows, []expr.Expr{col("p")}, ob, funcs, col("p"), col("v")) {
					for _, workers := range []int{1, 2} {
						for _, budget := range []*spill.Config{nil, cfg} {
							label := fmt.Sprintf("trial %d (%s, arg %s) %s workers=%d budget=%v", trial, key, arg.name, name, workers, budget != nil)
							op, stats := plan(), &WindowStats{}
							setRunOptions(op, budget, workers).Stats = stats
							got, err := Collect(op)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if len(got) != n {
								t.Fatalf("%s: %d rows, want %d", label, len(got), n)
							}
							for i, row := range got {
								for f := range funcs {
									v, w := row[4+f], want[i][f]
									if v.IsNull() != (w == nil) || (w != nil && v.Float() != *w) {
										t.Fatalf("%s: row %d (%s) %s = %s, reference model says %v", label, i, rows[i], funcs[f], v, w)
									}
								}
							}
							if budget != nil {
								if used := cfg.Budget.Used(); used != 0 {
									t.Fatalf("%s: %d budget bytes leaked", label, used)
								}
								continue
							}
							// The path taken is part of the contract: fixed-width
							// keys sort typed, a NaN or a mix falls back; clean
							// arguments run typed kernels, a NULL or a mix the
							// boxed ones — and never silently the other way round.
							typed, cmpd := stats.TypedSorts.Load(), stats.ComparatorSorts.Load()
							if name == "unshared" && ((sc.want == sortTyped) != (typed > 0) || (sc.want == sortComparator) != (cmpd > 0)) {
								t.Fatalf("%s: typed=%d comparator=%d sorts, want only %s", label, typed, cmpd, sc.want)
							}
							if tk, bk := stats.TypedKernels.Load(), stats.BoxedKernels.Load(); arg.boxed != (bk > 0) || (!arg.boxed && tk == 0) {
								t.Fatalf("%s: typed=%d boxed=%d kernels, want boxed=%v", label, tk, bk, arg.boxed)
							}
						}
					}
				}
			}
		})
	}
}
