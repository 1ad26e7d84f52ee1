package exec

import (
	"cmp"
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"rfview/internal/expr"
	"rfview/internal/spill"
	"rfview/internal/sqltypes"
)

// WindowStats aggregates window-operator executions for the engine's
// parallelism-utilization metrics. One instance is shared by every Window
// the engine plans; all fields are atomic, so workers update them lock-free.
type WindowStats struct {
	// Runs counts Window.Open executions; ParallelRuns the subset that used
	// more than one worker.
	Runs, ParallelRuns atomic.Int64
	// Partitions counts partitions evaluated; WorkersUsed sums the worker
	// count of each run, so WorkersUsed/Runs is the mean effective
	// parallelism (utilization = mean / configured cap).
	Partitions, WorkersUsed atomic.Int64
	// NormalizedSorts counts partition orderings, all of which run on
	// normalized keys — TypedSorts the subset that sorted packed fixed-width
	// key records, the rest memcomparable byte strings (a VARCHAR key).
	NormalizedSorts, TypedSorts atomic.Int64
	// SortsPerformed counts full window-ordering sorts actually executed: the
	// shared class sorts of multi-window plans and the in-operator orderings
	// of unshared Window runs.
	// SortsShared counts Window runs that consumed a shared sort without
	// re-ordering; SortsSegmented counts Window runs that reused partition
	// grouping from the stream and re-sorted only within partition segments.
	SortsPerformed, SortsShared, SortsSegmented atomic.Int64
}

// FrameBoundKind mirrors the SQL ROWS frame bound kinds at the executor
// level (kept separate from the parser's AST types so the executor does not
// depend on the parser).
type FrameBoundKind uint8

// Frame bound kinds.
const (
	BoundUnboundedPreceding FrameBoundKind = iota
	BoundPreceding
	BoundCurrentRow
	BoundFollowing
	BoundUnboundedFollowing
)

// FrameBound is one end of a ROWS frame.
type FrameBound struct {
	Kind   FrameBoundKind
	Offset int
}

// FrameSpec is a resolved ROWS frame. The zero value (both bounds
// BoundUnboundedPreceding) is never used directly; use DefaultFrame.
type FrameSpec struct {
	Start, End FrameBound
}

// DefaultFrame returns the SQL default frame: with an ORDER BY, UNBOUNDED
// PRECEDING … CURRENT ROW (cumulative); without, the whole partition.
func DefaultFrame(hasOrder bool) FrameSpec {
	if hasOrder {
		return FrameSpec{
			Start: FrameBound{Kind: BoundUnboundedPreceding},
			End:   FrameBound{Kind: BoundCurrentRow},
		}
	}
	return FrameSpec{
		Start: FrameBound{Kind: BoundUnboundedPreceding},
		End:   FrameBound{Kind: BoundUnboundedFollowing},
	}
}

func (b FrameBound) String() string {
	switch b.Kind {
	case BoundUnboundedPreceding:
		return "UNBOUNDED PRECEDING"
	case BoundPreceding:
		return fmt.Sprintf("%d PRECEDING", b.Offset)
	case BoundCurrentRow:
		return "CURRENT ROW"
	case BoundFollowing:
		return fmt.Sprintf("%d FOLLOWING", b.Offset)
	default:
		return "UNBOUNDED FOLLOWING"
	}
}

// WindowFunc is one reporting-function column: an aggregate plus its frame.
// All functions of one Window operator share the PARTITION BY and ORDER BY
// clauses; the planner stacks one operator per distinct clause pair.
type WindowFunc struct {
	Name    string    // SUM, COUNT, AVG, MIN, MAX
	Arg     expr.Expr // nil for COUNT(*)
	Frame   FrameSpec
	OutName string
}

func (w WindowFunc) String() string {
	arg := "*"
	if w.Arg != nil {
		arg = w.Arg.String()
	}
	return fmt.Sprintf("%s(%s) ROWS BETWEEN %s AND %s", w.Name, arg, w.Frame.Start, w.Frame.End)
}

// Window computes reporting functions: for every input row, one output value
// per WindowFunc, aggregated over the ROWS frame within the row's partition
// under the given ordering (the paper's Fig. 1 semantics). Input order is
// preserved in the output; reporting functions do not shrink or reorder the
// stream (§1: "one output value for each single input value").
//
// The operator is columnar inside. Open drains the child once into typed
// vectors (sqltypes.ColVec) of the PARTITION BY, ORDER BY and argument
// expressions and fills the output slab with the emitted input columns: a
// child that produces batches hands its columns over directly, any other
// child's rows are evaluated in one pass. From then on the vectors are the
// only copy of the input the operator reads — they are lossless. Partition ids
// come from a hash of the partition vectors, each partition is ordered by
// sorting packed key records (keys.go), and internal/core's §2.2 kernels run
// over the partition's gathered argument vector (kernels.go), their results
// boxed straight into the slab — so a run allocates O(1) times, not per row.
//
// SUM, COUNT and AVG slide their frame: add the value that enters, remove the
// one that leaves (three operations per position, independent of window
// size). MIN/MAX use a monotonic deque, still O(n) amortized.
// Partitions are independent by construction (the §6 partitioning reduction
// lemma), so with Parallelism > 1 they are fanned across a bounded worker
// pool; every partition writes the disjoint slab slots of its own rows,
// keeping the hot path lock-free while preserving input order in the output.
type Window struct {
	Input       Operator
	PartitionBy []expr.Expr
	OrderBy     []SortKey
	Funcs       []WindowFunc
	// Parallelism caps the worker goroutines evaluating partitions
	// concurrently; 0 or 1 means sequential, and the pool never exceeds the
	// partition count.
	Parallelism int
	// Ctx, when set, cancels the computation: the input drain and the
	// partition workers observe it. nil means context.Background().
	Ctx context.Context
	// Stats, when set, receives per-run observability counters.
	Stats *WindowStats
	// Spill, when enabled, accounts the operator's memory: the run's vectors
	// and each partition's sort records are force-charged to the budget —
	// every partition is ordered in memory, overdrafting rather than
	// spilling — and pooled scratch is trimmed back to the budgeted ceiling
	// instead of growing without bound.
	Spill *spill.Config
	// Emit, when non-nil, selects and orders the columns of the rows the
	// operator produces — indices into its full schema, input columns first,
	// then one per function. The planner sets it when the parent projection
	// is a pure column pick (Project.PushDown), so the picked rows are built
	// once here instead of widened here and narrowed again above.
	Emit []int
	// Shared marks the operator as a consumer of a shared-sort window plan:
	// the stream was reordered by a class sort below, so every ordering
	// resolves ties by the OrdinalCol tag instead of by stream position.
	// Requires OrdinalCol; see plan's shared-sort pass.
	Shared bool
	// PreSorted additionally promises that within each partition the stream
	// is ordered by OrderBy (possibly refined by further keys of a longer
	// shared sort). The operator then skips the per-partition sort and only
	// normalizes tie runs back to input-ordinal order.
	PreSorted bool
	// OrderExact marks a pre-sorted consumer whose ORDER BY keys are exactly
	// the shared sort's full order suffix. The class sort breaks ties by the
	// ordinal tag, so tie runs already sit in original input order and there
	// is nothing to normalize.
	OrderExact bool
	// OrdinalCol is the input column holding each row's original position
	// (appended by an Ordinal operator below the shared sorts); -1 when the
	// plan is unshared. Breaking ties by it is what keeps shared and unshared
	// results bit-identical.
	OrdinalCol int
	// Class is the 1-based window spec class this operator belongs to in a
	// shared plan (EXPLAIN provenance); 0 when unshared.
	Class int
	// ClassOrder, when set, is the adjacency metadata of the class Sort this
	// operator is stacked above (shared with every member of the class). When
	// valid for an execution, partition boundaries and ORDER BY tie runs come
	// from the sort's own key comparisons and no key is evaluated here; when
	// invalid (a spilled sort) the key vectors are built as in an unshared
	// run.
	ClassOrder *ClassOrderMeta

	schema, emitSchema *expr.Schema
	out                []sqltypes.Row
	pos                int
	// path is the ordering the last run's partitions took and sorted whether
	// any partition was sorted, for EXPLAIN ANALYZE; sorted is atomic because
	// parallel workers set it.
	path   sortPath
	sorted atomic.Bool
	// argExprs are the distinct non-nil window-function arguments; argSlots
	// maps each func to its column in argExprs (-1 for COUNT(*)). Built by
	// prepareArgs before partitions are evaluated, so worker goroutines only
	// read them.
	argExprs []expr.Expr
	argSlots []int
}

// ctx resolves the operator's context.
func (w *Window) ctx() context.Context {
	if w.Ctx != nil {
		return w.Ctx
	}
	return context.Background()
}

// NewWindow builds the operator; its schema is the input schema plus one
// column per window function.
func NewWindow(input Operator, partitionBy []expr.Expr, orderBy []SortKey, funcs []WindowFunc) *Window {
	extra := make([]expr.ColInfo, len(funcs))
	for i, f := range funcs {
		in := sqltypes.Int
		if f.Arg != nil {
			in = f.Arg.Type()
		}
		extra[i] = expr.ColInfo{Name: f.OutName, Type: expr.AggResultType(f.Name, in)}
	}
	return &Window{
		Input: input, PartitionBy: partitionBy, OrderBy: orderBy, Funcs: funcs,
		OrdinalCol: -1,
		schema:     input.Schema().Append(extra...),
	}
}

// Schema implements Operator: the full schema, or its Emit selection.
func (w *Window) Schema() *expr.Schema {
	if w.Emit == nil {
		return w.schema
	}
	if w.emitSchema == nil {
		w.emitSchema = expr.NewSchema()
		for _, c := range w.Emit {
			w.emitSchema.Cols = append(w.emitSchema.Cols, w.schema.Cols[c])
		}
	}
	return w.emitSchema
}

// winRun is the columnar state of one Window execution, pooled across runs.
// Everything in it is written before the partition workers start, except
// slab, whose slots each worker writes for its own rows only.
type winRun struct {
	// rows is the drained input of a child that produces rows, n the input
	// row count.
	rows []sqltypes.Row
	n    int
	// part, order and args hold the PARTITION BY, ORDER BY and distinct
	// argument columns, one position per input row; ordinals each row's
	// original input position on a shared stream.
	part, order, args []sqltypes.ColVec
	evals             []colEval
	ordinals          []int64
	// Batch drain state: the input batch, the columns read from it, the
	// emitted input columns gathered until the slab can be cut (carry,
	// parallel to inCols), and a row to evaluate expressions over.
	batch sqltypes.Batch
	need  []int
	carry []sqltypes.ColVec
	row   sqltypes.Row
	// ord lists the row positions partition by partition: partition p is
	// ord[bounds[p]:bounds[p+1]], in stream order until it is sorted.
	ord, bounds []int
	// Partitioner scratch: per-row hashes and partition ids, the open
	// addressing table of partition ids, and each partition's first row.
	hash       []uint64
	pid, first []int32
	table      []int32
	// lay and path are the partition ordering chosen by the order columns'
	// runtime types. metaOrdered: partitions and tie runs come from the class
	// sort's metadata and no key vector was built.
	lay         recLayout
	path        sortPath
	metaOrdered bool
	// slab backs the output rows, width datums each; funcCol is each
	// function's column within a row, -1 when Emit drops it, and inCols the
	// emitted input columns as (output column, input column) pairs.
	slab    []sqltypes.Datum
	width   int
	funcCol []int
	inCols  [][2]int
}

// colEval pairs an expression with the vector its values are gathered into;
// col is the input column when the expression is a plain reference, else -1.
type colEval struct {
	e   expr.Expr
	vec *sqltypes.ColVec
	col int
}

func (w *Window) newColEval(e expr.Expr, vec *sqltypes.ColVec) colEval {
	ce := colEval{e: e, vec: vec, col: -1}
	if c, ok := e.(*expr.Col); ok && c.Idx < len(w.schema.Cols)-len(w.Funcs) {
		ce.col = c.Idx
	}
	return ce
}

var winRunPool = sync.Pool{New: func() any { return new(winRun) }}

// putRun returns r to the pool without the buffers the run handed out, or
// drops it when a budget is in force and it grew past the pooled ceiling.
func (w *Window) putRun(r *winRun) {
	if w.Spill.Enabled() && int64(cap(r.ord))*8 > maxPooledScratchBytes {
		return
	}
	clear(r.rows)
	r.slab = nil
	winRunPool.Put(r)
}

// Open implements Operator: materializes the input and computes every window
// column.
func (w *Window) Open() error {
	r := winRunPool.Get().(*winRun)
	defer w.putRun(r)
	w.prepareArgs()
	w.sorted.Store(false)

	// A shared stream arrives sorted, as rows, with its class metadata.
	var src batchOperator
	if !w.Shared {
		src = batchInput(w.Input)
	}
	byMeta := false
	if src == nil {
		rows, err := collectInto(w.ctx(), w.Input, r.rows)
		if err != nil {
			return err
		}
		r.rows = rows
		byMeta = w.Shared && w.ClassOrder.Valid(len(rows))
	}
	r.metaOrdered = byMeta && w.PreSorted && len(w.OrderBy) > 0
	r.part, r.order, r.args = r.part[:0], r.order[:0], grow(r.args, len(w.argExprs))
	if !byMeta {
		r.part = grow(r.part, len(w.PartitionBy))
	}
	if !r.metaOrdered {
		r.order = grow(r.order, len(w.OrderBy))
	}
	var err error
	if src != nil {
		err = w.drainBatches(r, src)
	} else {
		err = w.buildColumns(r)
	}
	if err != nil {
		return err
	}
	for i := range r.args {
		coerceMixed(&r.args[i])
	}
	n := r.n
	// The vectors and the partition index are real per-run allocations;
	// force-charge them so the budget gauge sees the pressure.
	if w.Spill.Enabled() {
		charged := int64(n) * 8 * int64(len(r.part)+len(r.order)+len(r.args)+2)
		w.Spill.Budget.Force(charged)
		defer w.Spill.Budget.Release(charged)
	}
	if byMeta {
		w.partitionByTieDepth(r)
	} else {
		w.partitionByHash(r)
	}
	if len(r.order) > 0 {
		if r.path, err = keyPath(r.order); err != nil {
			return err
		}
		if n > math.MaxInt32 { // too many rows for the typed path's tie-break
			r.path = sortEncoded
		}
		r.lay = newRecLayout(w.OrderBy, r.order)
		w.path = r.path
	}
	if err := w.computePartitions(r); err != nil {
		return err
	}

	w.out = make([]sqltypes.Row, n)
	for i := range w.out {
		w.out[i] = r.slab[i*r.width : (i+1)*r.width : (i+1)*r.width]
	}
	w.pos = 0
	return nil
}

// layoutRun resets the run's vectors for about n rows, pairs each with the
// expression evaluated into it, and lays out the output rows.
func (w *Window) layoutRun(r *winRun, n int) error {
	evals := r.evals[:0]
	for i := range r.part {
		evals = append(evals, w.newColEval(w.PartitionBy[i], &r.part[i]))
	}
	for i := range r.order {
		evals = append(evals, w.newColEval(w.OrderBy[i].Expr, &r.order[i]))
	}
	for i := range r.args {
		evals = append(evals, w.newColEval(w.argExprs[i], &r.args[i]))
	}
	for _, ce := range evals {
		ce.vec.Reset(n)
	}
	r.evals = evals
	if w.Shared {
		r.ordinals = grow(r.ordinals, n)
	}

	// The output layout: Emit's selection, or every column in schema order.
	inW := len(w.schema.Cols) - len(w.Funcs)
	if w.Shared && (w.OrdinalCol < 0 || w.OrdinalCol >= inW) {
		return fmt.Errorf("exec: shared window has no ordinal column %d in its input", w.OrdinalCol)
	}
	r.funcCol, r.inCols, r.width = grow(r.funcCol, len(w.Funcs)), r.inCols[:0], len(w.schema.Cols)
	if w.Emit != nil {
		r.width = len(w.Emit)
	}
	for f := range r.funcCol {
		r.funcCol[f] = -1
	}
	for j := 0; j < r.width; j++ {
		c := j
		if w.Emit != nil {
			c = w.Emit[j]
		}
		if c >= inW {
			r.funcCol[c-inW] = j
		} else {
			r.inCols = append(r.inCols, [2]int{j, c})
		}
	}
	return nil
}

// buildColumns is the one pass over drained rows: it evaluates the
// partition, order and argument expressions into r's vectors, reads the
// ordinal tag of a shared stream, and copies the emitted input columns into
// the freshly allocated output slab.
func (w *Window) buildColumns(r *winRun) error {
	n := len(r.rows)
	if err := w.layoutRun(r, n); err != nil {
		return err
	}
	r.n = n
	r.slab = make([]sqltypes.Datum, n*r.width)
	inW := len(w.schema.Cols) - len(w.Funcs)
	for i, row := range r.rows {
		if len(row) < inW {
			return fmt.Errorf("exec: row of %d columns, window input has %d", len(row), inW)
		}
		for _, ce := range r.evals {
			if ce.col >= 0 {
				ce.vec.Append(row[ce.col])
				continue
			}
			v, err := ce.e.Eval(row)
			if err != nil {
				return err
			}
			ce.vec.Append(v)
		}
		if w.Shared {
			r.ordinals[i] = row[w.OrdinalCol].Int()
		}
		dst := r.slab[i*r.width:]
		for _, jc := range r.inCols {
			dst[jc[0]] = row[jc[1]]
		}
	}
	return nil
}

// drainBatches is buildColumns for a child that produces batches: each
// batch's columns are appended to r's vectors as they are, an expression
// that is not a plain column is evaluated at each live position, and the
// emitted input columns are gathered too, so the slab is cut once the row
// count is known.
func (w *Window) drainBatches(r *winRun, src batchOperator) error {
	if err := w.layoutRun(r, 0); err != nil {
		return err
	}
	inW := len(w.schema.Cols) - len(w.Funcs)
	r.need = r.need[:0]
	evalRows := false
	for _, ce := range r.evals {
		evalRows = evalRows || ce.col < 0
		if ce.col >= 0 {
			r.need = addCol(r.need, ce.col)
		}
	}
	r.carry = grow(r.carry, len(r.inCols))
	for k, jc := range r.inCols {
		r.carry[k].Reset(0)
		r.need = addCol(r.need, jc[1])
	}
	if evalRows {
		for c := 0; c < inW; c++ {
			r.need = addCol(r.need, c)
		}
	}
	r.row = grow(r.row, inW)

	r.n = 0
	if err := src.Open(); err != nil {
		src.Close()
		return err
	}
	b := &r.batch
	for {
		if err := ctxErr(w.ctx()); err != nil {
			src.Close()
			return err
		}
		ok, err := src.NextBatch(r.need, b)
		if err != nil {
			src.Close()
			return err
		}
		if !ok {
			break
		}
		for _, ce := range r.evals {
			if ce.col >= 0 {
				ce.vec.AppendSel(&b.Cols[ce.col], b.Sel)
			}
		}
		for k, jc := range r.inCols {
			r.carry[k].AppendSel(&b.Cols[jc[1]], b.Sel)
		}
		if evalRows {
			if err := w.evalBatch(r, b); err != nil {
				src.Close()
				return err
			}
		}
		r.n += b.Len()
	}
	if err := src.Close(); err != nil {
		return err
	}
	r.slab = make([]sqltypes.Datum, r.n*r.width)
	if r.n > 0 {
		for k, jc := range r.inCols {
			r.carry[k].PutDatums(r.slab[jc[0]:], r.width, nil)
		}
	}
	return nil
}

// evalBatch evaluates the expressions that are not plain columns at every
// live position of b, each position read back into a row.
func (w *Window) evalBatch(r *winRun, b *sqltypes.Batch) error {
	for _, p := range b.Positions() {
		for c := range r.row {
			r.row[c] = b.Cols[c].Datum(p)
		}
		for _, ce := range r.evals {
			if ce.col >= 0 {
				continue
			}
			v, err := ce.e.Eval(r.row)
			if err != nil {
				return err
			}
			ce.vec.Append(v)
		}
	}
	return nil
}

// partitionByTieDepth groups the stream into partitions off the class sort's
// adjacency table: a new partition starts wherever fewer than the class's
// partition key count of leading sort keys match the previous row. The
// member's partition key set is set-equal to the class's leading keys, so
// the thresholds coincide.
func (w *Window) partitionByTieDepth(r *winRun) {
	n := r.n
	depths := w.ClassOrder.TieDepths()
	partKeys := int32(w.ClassOrder.PartKeys())
	r.ord, r.bounds = identity(r.ord, n), r.bounds[:0]
	for i := 0; i < n; i++ {
		if i == 0 || depths[i] < partKeys {
			r.bounds = append(r.bounds, i)
		}
	}
	r.bounds = append(r.bounds, n)
}

// hashMul is the 64-bit Fibonacci multiplier; the partition table indexes by
// the product's high bits.
const hashMul = 0x9E3779B97F4A7C15

var partitionSeed = maphash.MakeSeed()

// partitionByHash assigns every row a dense partition id by hashing its
// partition key and groups the row positions by id: partitions in first-seen
// order, positions ascending within each — what a stable sort over hash
// partitions collected in input order would see. A partition is one class
// of Equal keys, as the view's primary key and its maintenance see it: the
// vectors hash canonical words (-0.0 as +0.0, every NaN as one) and compare
// with EqualAt.
func (w *Window) partitionByHash(r *winRun) {
	n := r.n
	if len(r.part) == 0 && n > 0 { // one partition; an empty input has none
		r.ord, r.bounds = identity(r.ord, n), append(r.bounds[:0], 0, n)
		return
	}
	r.hash = grow(r.hash, n)
	hashVecs(r.part, r.hash)
	same := func(a, b int) bool {
		for vi := range r.part {
			if !r.part[vi].EqualAt(a, b) {
				return false
			}
		}
		return true
	}

	// Open addressing over partition ids; the table doubles at half load, so
	// a run with few partitions probes a table that stays in L1.
	r.pid, r.first = grow(r.pid, n), r.first[:0]
	bits := 10 // log2 of the table size
	resize := func() {
		r.table = grow(r.table, 1<<bits)
		for i := range r.table {
			r.table[i] = -1
		}
		for p, fi := range r.first {
			slot := r.hash[fi] >> (64 - bits)
			for r.table[slot] >= 0 {
				slot = (slot + 1) & (1<<bits - 1)
			}
			r.table[slot] = int32(p)
		}
	}
	resize()
	for i := 0; i < n; i++ {
		slot := r.hash[i] >> (64 - bits)
		for {
			p := r.table[slot]
			if p < 0 {
				p = int32(len(r.first))
				r.table[slot] = p
				r.first = append(r.first, int32(i))
				r.pid[i] = p
				if len(r.first)*2 > len(r.table) {
					bits++
					resize()
				}
				break
			}
			if fi := int(r.first[p]); r.hash[fi] == r.hash[i] && same(fi, i) {
				r.pid[i] = p
				break
			}
			slot = (slot + 1) & (1<<bits - 1)
		}
	}

	// Counting sort of the positions by partition id. Counts go in two
	// slots up, so that after the prefix sum bounds[p+1] is partition p's
	// write cursor, and once p is written out, partition p+1's start.
	nparts := len(r.first)
	r.bounds = grow(r.bounds, nparts+2)
	for p := range r.bounds {
		r.bounds[p] = 0
	}
	for _, p := range r.pid {
		r.bounds[p+2]++
	}
	for p := 2; p < len(r.bounds); p++ {
		r.bounds[p] += r.bounds[p-1]
	}
	r.ord = grow(r.ord, n)
	for i, p := range r.pid {
		r.ord[r.bounds[p+1]] = i
		r.bounds[p+1]++
	}
	r.bounds = r.bounds[:nparts+1]
}

// hashVecs fills h with one hash per position over the key vectors; Equal
// values of one vector hash equally.
func hashVecs(vecs []sqltypes.ColVec, h []uint64) {
	for i := range h {
		h[i] = 0
	}
	for vi := range vecs {
		v := &vecs[vi]
		switch {
		case v.Mixed():
			for i := range h {
				h[i] = (h[i] ^ v.Datum(i).Hash()) * hashMul
			}
		case v.Typ == sqltypes.Null:
		case v.Typ == sqltypes.Float:
			for i, f := range v.Floats {
				h[i] = (h[i] ^ sqltypes.OrderWordFloat(f)) * hashMul
			}
		case v.Typ == sqltypes.String:
			for i, s := range v.Strs {
				h[i] = (h[i] ^ maphash.String(partitionSeed, s)) * hashMul
			}
		default:
			for i, x := range v.Ints {
				h[i] = (h[i] ^ uint64(x)) * hashMul
			}
		}
		if v.Nulls.Any() {
			for i := range h {
				if v.Nulls.Get(i) {
					h[i] = ^h[i] * hashMul
				}
			}
		}
	}
}

// computePartitions evaluates every partition, fanning across a bounded
// worker pool when Parallelism allows and the input is not degenerate.
//
// Concurrency safety rests on three invariants: the run's rows, vectors and
// partition index are read-only once the workers start, compiled expressions
// are stateless (each worker's kernel scratch is its own partScratch), and
// each partition reorders only its own segment of ord and writes only its
// own rows' slab slots — so workers share no mutable state and need no
// locks.
func (w *Window) computePartitions(r *winRun) error {
	ctx := w.ctx()
	nparts := len(r.bounds) - 1
	workers := w.Parallelism
	if workers > nparts {
		workers = nparts
	}
	if w.Stats != nil {
		w.Stats.Runs.Add(1)
		w.Stats.Partitions.Add(int64(nparts))
		if workers > 1 {
			w.Stats.ParallelRuns.Add(1)
			w.Stats.WorkersUsed.Add(int64(workers))
		} else {
			w.Stats.WorkersUsed.Add(1)
		}
		switch {
		case w.Shared && w.PreSorted:
			w.Stats.SortsShared.Add(1)
		case w.Shared:
			w.Stats.SortsSegmented.Add(1)
		case len(w.OrderBy) > 0:
			w.Stats.SortsPerformed.Add(1)
		}
	}
	// Every worker claims partitions off one cursor until they run out, the
	// context is cancelled, or any worker fails; the first error wins.
	var (
		wg       sync.WaitGroup
		cursor   atomic.Int64
		failed   atomic.Bool
		once     sync.Once
		firstErr error
	)
	work := func() {
		defer wg.Done()
		for !failed.Load() {
			p := int(cursor.Add(1)) - 1
			if p >= nparts {
				return
			}
			err := ctxErr(ctx)
			if err == nil {
				err = w.computePartition(r, p)
			}
			if err != nil {
				once.Do(func() { firstErr = err })
				failed.Store(true)
			}
		}
	}
	wg.Add(max(workers, 1))
	for g := 1; g < workers; g++ {
		go work()
	}
	work() // the caller is the first worker, and the only one of a sequential run
	wg.Wait()
	return firstErr
}

// prepareArgs dedupes the window functions' argument expressions so each
// distinct argument is evaluated once per row (SUM(x) and AVG(x) share one
// column). Dedup key is the canonical expression rendering — compiled
// expressions are pure functions of the row, so equal renderings are
// interchangeable. Called once per Open, before any worker starts.
func (w *Window) prepareArgs() {
	w.argExprs = w.argExprs[:0]
	w.argSlots = grow(w.argSlots, len(w.Funcs))
	seen := make(map[string]int, len(w.Funcs))
	for fi, fn := range w.Funcs {
		if fn.Arg == nil {
			w.argSlots[fi] = -1 // COUNT(*)
			continue
		}
		key := fn.Arg.String()
		slot, ok := seen[key]
		if !ok {
			slot = len(w.argExprs)
			w.argExprs = append(w.argExprs, fn.Arg)
			seen[key] = slot
		}
		w.argSlots[fi] = slot
	}
}

// partScratch holds one partition evaluation's reusable buffers: the sort
// scratch, the partition's gathered argument vectors, and the kernels' typed
// outputs and deque. Pooled because a parallel run evaluates many partitions
// concurrently.
type partScratch struct {
	sort sortScratch
	vecs []sqltypes.ColVec
	isum []int64   // INTEGER sums
	fsum []float64 // FLOAT sums, AVG's too
	cnt  []int64   // each frame's count of values
	at   []int     // the row MIN/MAX picks
	keys []int64   // FLOAT MIN/MAX order keys
	dq   []int     // MIN/MAX deque rows
}

var partScratchPool = sync.Pool{New: func() any { return new(partScratch) }}

// computePartition orders partition p (stable: ties keep input order, making
// frames deterministic), gathers its argument vectors in that order and
// fills its rows' slab slots for every func.
func (w *Window) computePartition(r *winRun, p int) error {
	ord := r.ord[r.bounds[p]:r.bounds[p+1]]
	ps := partScratchPool.Get().(*partScratch)
	defer w.putPartScratch(ps)
	if err := w.orderPartition(r, ord, ps); err != nil {
		return err
	}

	ps.vecs = grow(ps.vecs, len(r.args))
	for ai := range ps.vecs {
		ps.vecs[ai].Gather(&r.args[ai], ord)
	}
	for fi := range w.Funcs {
		if err := w.evalFunc(r, fi, ord, ps); err != nil {
			return err
		}
	}
	return nil
}

// orderPartition establishes one partition's evaluation order in ord. An
// unshared run sorts by w.OrderBy. On a shared stream a pre-sorted partition
// only normalizes tie runs back to input-ordinal order — off the class
// sort's metadata when that is valid, else off the order vectors; segmented
// reuse runs the full sort with the ordinal as tie-break, which makes the
// result bit-identical to the unshared path by construction.
func (w *Window) orderPartition(r *winRun, ord []int, ps *partScratch) error {
	switch {
	case len(w.OrderBy) == 0:
		if w.Shared {
			sortByOrdinal(r.ordinals, ord)
		}
		return nil
	case r.metaOrdered:
		if !w.OrderExact {
			depths := w.ClassOrder.TieDepths()
			want := int32(w.ClassOrder.PartKeys() + len(w.OrderBy))
			normalizeTieRuns(r.ordinals, ord, func(_, cur int) bool { return depths[cur] >= want })
		}
		return nil
	case w.Shared && w.PreSorted:
		if !w.OrderExact {
			normalizeTieRuns(r.ordinals, ord, func(prev, cur int) bool {
				for vi := range r.order {
					if !r.order[vi].EqualAt(prev, cur) {
						return false
					}
				}
				return true
			})
		}
		return nil
	}

	var tie []int64
	if w.Shared {
		tie = r.ordinals
	}
	if w.Spill.Enabled() {
		// The typed records and the radix sort's ping-pong half of the record
		// numbers are this partition's sort scratch (the encoded path's keys
		// are about as large): charged like the run's vectors, never refused.
		recBytes := int64(len(ord)) * int64(r.lay.width+1) * 8
		w.Spill.Budget.Force(recBytes)
		defer w.Spill.Budget.Release(recBytes)
	}
	if w.Shared && r.path != sortTyped {
		// The encoded sort keeps arrival order among ties, so a shared stream
		// goes back to input order first.
		sortByOrdinal(r.ordinals, ord)
	}
	sortByVecs(r.path, &r.lay, ord, tie, &ps.sort)
	w.sorted.Store(true)
	if w.Stats != nil {
		w.Stats.NormalizedSorts.Add(1)
		if r.path == sortTyped {
			w.Stats.TypedSorts.Add(1)
		}
	}
	return nil
}

// normalizeTieRuns re-establishes the unshared tie order of a pre-sorted
// partition: the shared class sort may refine this operator's ORDER BY with
// further keys, so rows that tie on it can arrive in an order the unshared
// stable sort would not have produced. The pass splits ord into maximal runs
// of rows tied with their predecessor and sorts each run by ordinal.
func normalizeTieRuns(ordinals []int64, ord []int, tied func(prev, cur int) bool) {
	start := 0
	for i := 1; i <= len(ord); i++ {
		if i == len(ord) || !tied(ord[i-1], ord[i]) {
			if i-start > 1 {
				sortByOrdinal(ordinals, ord[start:i])
			}
			start = i
		}
	}
}

// sortByOrdinal orders positions by the rows' ordinal tag — the original
// input order. Ordinals are unique, so the result is a strict total order.
func sortByOrdinal(ordinals []int64, pos []int) {
	slices.SortFunc(pos, func(a, b int) int { return cmp.Compare(ordinals[a], ordinals[b]) })
}

// maxPooledScratchBytes caps how much buffer capacity scratch may carry back
// into a pool when a memory budget is configured. Without the cap, N
// parallel workers each retain buffers sized to the largest partition they
// ever saw — unbounded residency the budget knows nothing about.
const maxPooledScratchBytes = 256 << 10

// putPartScratch returns scratch to the pool, or drops it when a budget is
// in force and it grew past the pooled ceiling.
func (w *Window) putPartScratch(ps *partScratch) {
	kernel := 8 * (cap(ps.isum) + cap(ps.fsum) + cap(ps.cnt) + cap(ps.at) + cap(ps.keys) + cap(ps.dq))
	if w.Spill.Enabled() && (int64(kernel) > maxPooledScratchBytes || int64(cap(ps.sort.buf)) > maxPooledScratchBytes) {
		return
	}
	partScratchPool.Put(ps)
}

// takeRows implements rowsHandoff.
func (w *Window) takeRows() []sqltypes.Row {
	out := w.out
	w.out = nil
	return out
}

// Next implements Operator.
func (w *Window) Next() (sqltypes.Row, error) {
	if w.pos >= len(w.out) {
		return nil, nil
	}
	row := w.out[w.pos]
	w.pos++
	return row, nil
}

// Close implements Operator.
func (w *Window) Close() error {
	w.out = nil
	return nil
}

// Describe implements Operator.
func (w *Window) Describe() string {
	pb := make([]string, len(w.PartitionBy))
	for i, p := range w.PartitionBy {
		pb[i] = p.String()
	}
	ob := make([]string, len(w.OrderBy))
	for i, o := range w.OrderBy {
		ob[i] = o.String()
	}
	fs := make([]string, len(w.Funcs))
	for i, f := range w.Funcs {
		fs[i] = f.String()
	}
	par := ""
	if w.Parallelism > 1 {
		par = fmt.Sprintf(" parallel=%d", w.Parallelism)
	}
	sp := ""
	if w.sorted.Load() {
		sp = " sort=" + w.path.String()
	}
	shared := ""
	if w.Shared {
		if w.PreSorted {
			shared = fmt.Sprintf(" sort=shared class=%d", w.Class)
		} else {
			shared = fmt.Sprintf(" resort=segmented class=%d", w.Class)
		}
	}
	return fmt.Sprintf("Window partition=[%s] order=[%s] funcs=[%s]%s%s%s",
		joinTrunc(pb, 4), joinTrunc(ob, 4), joinTrunc(fs, 4), shared, par, sp)
}

// Children implements Operator.
func (w *Window) Children() []Operator { return []Operator{w.Input} }
