package plan

import (
	"sort"

	"rfview/internal/exec"
	"rfview/internal/expr"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
)

// This file is the shared-sort multi-window pass (after Cao et al.,
// "Optimization of Analytic Window Functions"): instead of one sort inside
// every Window operator, specs are grouped into ordering-compatible classes,
// each class gets at most one shared Sort, the classes are sequenced to reuse
// each other's orderings (full reuse, or segmented re-partitioning when only
// the partition keys match), and the whole stack is bracketed by
// Ordinal/Restore so the output is bit-identical to the unshared plan.
//
// Plan shape for k classes over input I:
//
//	Restore ── Window* ── [Sort_k] ── … ── Window* ── [Sort_1] ── Ordinal ── I
//
// Each Sort_i orders by class i's canonical partition keys followed by its
// merged order suffix; the Window operators above it consume that order
// (sort=shared) or re-sort within partition segments (resort=segmented).

// specClass is one ordering-compatible class of window groups: all members
// share a set-equal partition key set. part holds the canonical partition
// ordering (most-frequent key first, maximizing cross-class prefix reuse);
// suffix is the merged ORDER BY chain — every presorted member's order keys
// are a leading prefix of it.
type specClass struct {
	part    []SpecKey
	suffix  []SpecKey
	members []*windowGroup
	presort []bool // per member: order keys are a prefix of suffix
}

// ordering is the sort order the class's shared Sort produces.
func (c *specClass) ordering() []SpecKey {
	out := make([]SpecKey, 0, len(c.part)+len(c.suffix))
	out = append(out, c.part...)
	return append(out, c.suffix...)
}

// spec views the class as a WindowSpec for Compatible checks against a
// stream ordering.
func (c *specClass) spec() WindowSpec { return WindowSpec{Partition: c.part, Order: c.suffix} }

// buildSpecClasses groups the window groups into classes. Partition keys are
// canonically reordered by descending cross-spec frequency (ties
// lexicographic) — partition equality is set-based, so the planner is free to
// pick the permutation that makes one class's sort a prefix of another's.
// Within a class, members whose order keys chain by prefix extend the shared
// suffix and run presorted; members with incompatible order keys re-sort per
// partition segment.
func buildSpecClasses(groups []*windowGroup) []*specClass {
	freq := map[string]int{}
	for _, g := range groups {
		for _, k := range g.spec.Partition {
			freq[k.Expr]++
		}
	}
	var classes []*specClass
	for _, g := range groups {
		var c *specClass
		for _, cand := range classes {
			if exprSetEqual(g.spec.Partition, cand.part) {
				c = cand
				break
			}
		}
		if c == nil {
			part := append([]SpecKey(nil), g.spec.Partition...)
			sort.SliceStable(part, func(i, j int) bool {
				fi, fj := freq[part[i].Expr], freq[part[j].Expr]
				if fi != fj {
					return fi > fj
				}
				return part[i].Expr < part[j].Expr
			})
			c = &specClass{part: part}
			classes = append(classes, c)
		}
		switch {
		case isKeyPrefix(g.spec.Order, c.suffix):
			c.members = append(c.members, g)
			c.presort = append(c.presort, true)
		case isKeyPrefix(c.suffix, g.spec.Order):
			c.suffix = g.spec.Order
			c.members = append(c.members, g)
			c.presort = append(c.presort, true)
		default:
			c.members = append(c.members, g)
			c.presort = append(c.presort, false)
		}
	}
	return classes
}

// classStep is one emitted class of the sequenced plan.
type classStep struct {
	class *specClass
	// needSort: the class emits its own shared Sort (ReuseNone against the
	// stream). resortFull additionally marks that an earlier class had
	// already ordered the stream — the full re-sort the sequencing tries to
	// avoid. segmented demotes every member to per-segment re-sorts (the
	// class reused only the stream's partition grouping).
	needSort, resortFull, segmented bool
}

// sequenceClasses greedily orders the classes to minimize full re-sorts:
// at each step it takes the first remaining class with the best reuse grade
// against the current stream ordering (full > segmented > none). A Window
// operator always emits rows in its input order, so the stream ordering only
// changes when a class emits a Sort.
func sequenceClasses(classes []*specClass) []classStep {
	remaining := append([]*specClass(nil), classes...)
	steps := make([]classStep, 0, len(classes))
	grade := func(c *specClass, cur []SpecKey) Reuse {
		r := c.spec().Compatible(cur)
		if r == ReuseSegmented && len(c.part) == 0 {
			// One giant segment: an in-operator re-sort would be a full sort
			// per member. Emit a shared Sort instead.
			return ReuseNone
		}
		return r
	}
	var cur []SpecKey
	for len(remaining) > 0 {
		pick, best := 0, ReuseNone
		for i, c := range remaining {
			if r := grade(c, cur); i == 0 || r > best {
				pick, best = i, r
				if r == ReuseFull {
					break
				}
			}
		}
		c := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		step := classStep{class: c}
		switch best {
		case ReuseFull:
			// Stream order already satisfies the class; members keep their
			// in-class presort status.
		case ReuseSegmented:
			step.segmented = true
		default:
			step.needSort = true
			step.resortFull = cur != nil
			cur = c.ordering()
		}
		steps = append(steps, step)
	}
	return steps
}

// sharedOrdinalName is the hidden column Ordinal appends and Restore strips;
// prefixed to stay clear of user column names.
const sharedOrdinalName = "__rf_ord"

// planWindowsShared emits the shared-sort plan for ≥2 window spec groups:
// Ordinal tags the input order, each sequenced class contributes at most one
// shared Sort plus its stacked Window operators, and Restore re-establishes
// the original row order (dropping the tag), so downstream operators — and
// result rows — are bit-identical to the unshared plan.
func (p *Planner) planWindowsShared(input exec.Operator, groups []*windowGroup, nameOf map[*sqlparser.WindowExpr]string) (exec.Operator, error) {
	inSchema := input.Schema()
	ordCol := len(inSchema.Cols)
	var op exec.Operator = exec.NewOrdinal(input, sharedOrdinalName)

	steps := sequenceClasses(buildSpecClasses(groups))
	for i, step := range steps {
		classID := i + 1
		var order *exec.ClassOrderMeta
		if step.needSort {
			keys, err := p.compileSpecKeys(step.class.ordering(), inSchema)
			if err != nil {
				return nil, err
			}
			// Ties on the class ordering must come out in original input
			// order for every class sort in the stack, so members whose
			// ORDER BY is the full suffix need no tie normalization at all
			// (OrderExact below). Until a sort reorders it, the stream is
			// still in ordinal order and both sort paths are stable, so the
			// first emitted sort gets input-order ties for free; a full
			// re-sort of an already-reordered stream must encode the ordinal
			// tag as its final key to get back to it.
			if step.resortFull {
				keys = append(keys, exec.SortKey{Expr: expr.NewCol(ordCol, sharedOrdinalName, sqltypes.Int)})
			}
			order = exec.NewClassOrderMeta(len(step.class.part))
			op = &exec.Sort{
				Input:       op,
				Keys:        keys,
				Ctx:         p.Opts.Ctx,
				Spill:       p.Opts.Spill,
				SharedClass: classID,
				ResortFull:  step.resortFull,
				WinStats:    p.Opts.WindowStats,
				Order:       order,
			}
		}
		for mi, g := range step.class.members {
			win, err := p.buildWindow(inSchema, op, g, nameOf)
			if err != nil {
				return nil, err
			}
			win.Shared = true
			win.PreSorted = step.class.presort[mi] && !step.segmented
			// Exactness requires this step's own sort: a fully reused stream
			// may refine ties with keys between this member's suffix and the
			// ordinal, so only a sort emitted for this class guarantees its
			// full-suffix members tie-break straight to input order. The same
			// restriction scopes the sort's adjacency metadata: only members
			// stacked over their own class sort may read boundaries and tie
			// runs from it.
			win.OrderExact = step.needSort && win.PreSorted &&
				len(g.spec.Order) == len(step.class.suffix)
			win.ClassOrder = order
			win.OrdinalCol = ordCol
			win.Class = classID
			op = win
		}
	}
	restore := exec.NewRestore(op, ordCol)
	restore.Ctx = p.Opts.Ctx
	return restore, nil
}
