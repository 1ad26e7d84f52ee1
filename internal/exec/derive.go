package exec

import (
	"context"
	"fmt"
	"slices"
	"unsafe"

	"rfview/internal/core"
	"rfview/internal/expr"
	"rfview/internal/spill"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
)

// Derive answers a reporting-function query from a materialized sequence view
// with the sequence algebra of §3–§5 instead of the relational pattern that
// renders it (Figs. 5, 10, 13). It scans the view's stored rows once — header
// and trailer included, §3's complete sequence — drops each value at its
// position in a dense slab per partition (no sort, no join; the only hash
// table is the partition key's), runs internal/core's derivation over every
// slab and emits the query's columns for positions 1…n_p.
//
// n_p comes from the rows the scan saw at its snapshot — the last stored
// position is n_p+l_x — so the body is the view as of that snapshot, whatever
// has committed since. Rows that do not form a complete dense sequence (a
// gap, a duplicate or missing header position, a body flag that disagrees)
// end the statement with a *SequenceError: the algebra over an incomplete
// sequence would answer with wrong values, not fail.
//
// Like Window, Derive materializes in Open and charges what it holds to the
// memory budget: the scan's buffers as they grow, the slabs while the algebra
// runs, the output rows until Close.
type Derive struct {
	In DeriveInput
	// Agg is the query's aggregate: In.Agg, or AVG over a SUM view, whose
	// derived sums are divided position by position by the count the target
	// window implies in their partition (§2.1, core.Window.Count).
	Agg core.Agg
	// Target is the window (l_y, h_y) the query asked for.
	Target core.Window
	// Complete emits every stored position lo…n_p+l_x in the view's backing
	// layout rather than the body: a read of an AVG view by name, whose
	// stored sums divide into the quotients its query defines. Target is
	// then In.Win.
	Complete bool
	// Ctx, when set, is observed during the scan and between partitions.
	Ctx context.Context
	// Spill, when set, carries the memory budget the slabs are charged to.
	Spill *spill.Config

	cols    []sqlparser.DeriveColumn
	valType sqltypes.Type
	schema  *expr.Schema

	rows    []sqltypes.Row
	next    int
	charged int64
	// parts and stored describe the last execution, for EXPLAIN ANALYZE.
	parts, stored int
}

// DeriveInput is the stored sequence a Derive reads: the scan of a view's
// backing table, where its columns sit, and which window it materializes.
type DeriveInput struct {
	// Scan is the planner's *Scan, or the Probe EXPLAIN ANALYZE wraps it in.
	Scan batchOperator
	View string
	Win  core.Window // the materialized window (l_x, h_x)
	Agg  core.Agg
	// Algo is the derivation core.Algorithm chose for the rewriter; the
	// operator runs that one and labels itself with it.
	Algo core.Algo
	// Column ordinals in Scan's rows. Part and Body are -1 for a simple view,
	// whose rows are one partition.
	Part, Pos, Val, Body int
	// Rows is about how many rows Scan will return; it sizes the buffers.
	Rows int
}

// SequenceError reports that the rows scanned from a materialized view are
// not a complete dense sequence.
type SequenceError struct {
	View   string
	Part   string // the partition key, "" for a simple view
	Reason string
}

func (e *SequenceError) Error() string {
	if e.Part != "" {
		return fmt.Sprintf("derive: view %q partition %s is not a complete sequence: %s", e.View, e.Part, e.Reason)
	}
	return fmt.Sprintf("derive: view %q is not a complete sequence: %s", e.View, e.Reason)
}

// NewDerive builds a Derive answering agg over target and emitting cols — a
// partition column and a body flag only over a partitioned view. The value
// column is typed as native evaluation types it: FLOAT for AVG, INTEGER for
// COUNT, else as the view's val column.
func NewDerive(in DeriveInput, agg core.Agg, target core.Window, cols []sqlparser.DeriveColumn) *Derive {
	valType := in.Scan.Schema().Cols[in.Val].Type
	switch agg {
	case core.Avg:
		valType = sqltypes.Float
	case core.Count:
		valType = sqltypes.Int
	}
	infos := make([]expr.ColInfo, len(cols))
	for i, c := range cols {
		typ := sqltypes.Int
		switch c.Kind {
		case sqlparser.DerivePart:
			typ = in.Scan.Schema().Cols[in.Part].Type
		case sqlparser.DeriveValue:
			typ = valType
		case sqlparser.DeriveBody:
			typ = sqltypes.Bool
		}
		infos[i] = expr.ColInfo{Name: c.Name, Type: typ}
	}
	return &Derive{In: in, Agg: agg, Target: target, cols: cols, valType: valType, schema: expr.NewSchema(infos...)}
}

// Schema implements Operator.
func (d *Derive) Schema() *expr.Schema { return d.schema }

// storedSeqs are the sequences of one view as scanned: every partition's
// complete sequence side by side in one slab.
type storedSeqs struct {
	in    *DeriveInput
	lo    int // first stored position of every partition
	vals  []float64
	parts []seqPart
}

// seqPart is one partition: vals[off : off+max-lo+1] holds its positions
// lo…max, of which 1…n are the body.
type seqPart struct {
	key             sqltypes.Datum
	max, rows, body int // last position, rows and body flags seen
	off, n          int
}

func (s *storedSeqs) slab(p *seqPart) core.Slab {
	return core.Slab{Win: s.in.Win, Agg: s.in.Agg, Lo: s.lo, Vals: s.vals[p.off : p.off+p.max-s.lo+1]}
}

func (s *storedSeqs) errorf(p *seqPart, format string, args ...any) error {
	e := &SequenceError{View: s.in.View, Reason: fmt.Sprintf(format, args...)}
	if s.in.Part >= 0 {
		e.Part = p.key.String()
	}
	return e
}

// load scans the view once and drops every value at its position. The rows
// arrive in heap order, which no derivation may rely on: they are buffered as
// (partition, position, value), each partition's extent is taken from its
// largest position, and only then is the one slab cut — so a stray position
// is an error before it is an allocation. The scan hands over batches of the
// columns the sequence needs; no row is materialized.
func (d *Derive) load() (*storedSeqs, error) {
	in := &d.In
	s := &storedSeqs{in: in}
	switch {
	case !in.Win.Cumulative:
		s.lo = 1 - in.Win.Following
	case !in.Agg.Algebraic():
		s.lo = 1 // an empty MIN/MAX prefix is not stored
	}
	if err := in.Scan.Open(); err != nil {
		return nil, err
	}
	cols := []int{in.Pos, in.Val}
	for _, c := range []int{in.Part, in.Body} {
		if c >= 0 {
			cols = append(cols, c)
		}
	}
	var (
		part  []int32 // partition of each buffered row; nil for a simple view
		pos   = make([]int, 0, in.Rows)
		val   = make([]float64, 0, in.Rows)
		index map[sqltypes.Datum]int32
		cur   = int32(-1)
		b     = batchPool.Get().(*sqltypes.Batch)
	)
	defer batchPool.Put(b)
	// The buffers are charged as they grow, capacity by capacity, so the
	// budget sees the scan while it runs.
	rowBytes, charged := int64(8+8), 0
	if in.Part < 0 {
		s.parts, cur = []seqPart{{max: s.lo - 1}}, 0
	} else {
		part, index = make([]int32, 0, in.Rows), make(map[sqltypes.Datum]int32)
		rowBytes += 4
	}
	for {
		if err := ctxErr(d.Ctx); err != nil {
			return nil, err
		}
		ok, err := in.Scan.NextBatch(cols, b)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		// A view stores INTEGER positions and numeric values without NULLs,
		// which are read straight off the typed vectors; anything else is
		// read datum by datum, so the offending row can be named.
		posCol, valCol := &b.Cols[in.Pos], &b.Cols[in.Val]
		typed := posCol.Typ == sqltypes.Int && valCol.Typ.Numeric() && !posCol.Mixed() && !valCol.Mixed() &&
			!posCol.Nulls.Any() && !valCol.Nulls.Any()
		for _, i := range b.Positions() {
			if in.Part >= 0 {
				// A view is filled partition by partition, so the key of the
				// previous row usually answers without the map, which keys
				// a partition by its canonical datum.
				if key := b.Cols[in.Part].Datum(i); cur < 0 || s.parts[cur].key != key {
					i, ok := index[key.Key()]
					if !ok {
						i = int32(len(s.parts))
						index[key.Key()] = i
						s.parts = append(s.parts, seqPart{key: key, max: s.lo - 1})
					}
					cur = i
				}
			}
			p := &s.parts[cur]
			var at int
			var x float64
			switch {
			case !typed:
				k, v := posCol.Datum(i), valCol.Datum(i)
				if k.Typ() != sqltypes.Int || !v.Typ().Numeric() {
					return nil, s.errorf(p, "stored row (%v, %v) is not an INTEGER position and a numeric value", k, v)
				}
				at, x = int(k.Int()), v.Float()
			case valCol.Typ == sqltypes.Int:
				at, x = int(posCol.Ints[i]), float64(valCol.Ints[i])
			default:
				at, x = int(posCol.Ints[i]), valCol.Floats[i]
			}
			if at < s.lo {
				return nil, s.errorf(p, "position %d lies left of the header, which starts at %d", at, s.lo)
			}
			if at > p.max {
				p.max = at
			}
			p.rows++
			if in.Body >= 0 && b.Cols[in.Body].Datum(i).Bool() {
				p.body++
			}
			if charged == len(pos) {
				pos, val = slices.Grow(pos, 1), slices.Grow(val, 1)
				if in.Part >= 0 {
					part = slices.Grow(part, 1)
				}
				d.charge(int64(cap(pos)-charged) * rowBytes)
				charged = cap(pos)
			}
			pos, val = append(pos, at), append(val, x)
			if in.Part >= 0 {
				part = append(part, cur)
			}
		}
	}

	// A partition of rows distinct positions in lo…max is dense exactly when
	// rows = max−lo+1; placement below finds the duplicates that could hide a
	// gap behind the right count.
	total := 0
	for i := range s.parts {
		p := &s.parts[i]
		if want := p.max - s.lo + 1; p.rows != want {
			return nil, s.errorf(p, "%d rows stored for positions %d…%d", p.rows, s.lo, p.max)
		}
		// The trailer ends at n+l_x, a cumulative sequence at n; MIN/MAX
		// over no raw data stores nothing at all.
		p.n = p.max
		if !in.Win.Cumulative {
			p.n -= in.Win.Preceding
		}
		if p.rows == 0 && !in.Agg.Algebraic() {
			p.n = 0
		}
		if p.n < 0 {
			return nil, s.errorf(p, "the stored positions end at %d, before the trailer of even an empty sequence", p.max)
		}
		if in.Body >= 0 && p.body != p.n {
			return nil, s.errorf(p, "%d rows flagged as body, but the stored positions end at n+l = %d", p.body, p.max)
		}
		p.off, total = total, total+p.rows
	}
	// The slab stays until the derivation is done (Open); the seen flags and
	// the buffered triples go with this call.
	d.charge(int64(total) * (8 + 1))
	defer d.uncharge(int64(total) + int64(charged)*rowBytes)
	s.vals = make([]float64, total)
	seen := make([]bool, total)
	for i, at := range pos {
		p := &s.parts[0]
		if part != nil {
			p = &s.parts[part[i]]
		}
		j := p.off + at - s.lo
		if seen[j] {
			return nil, s.errorf(p, "position %d is stored twice", at)
		}
		s.vals[j], seen[j] = val[i], true
	}
	return s, nil
}

// charge accounts n more bytes to the memory budget, until uncharge or Close.
func (d *Derive) charge(n int64) {
	if d.Spill != nil {
		d.Spill.Budget.Force(n)
		d.charged += n
	}
}

// uncharge returns n charged bytes whose memory the operator has let go.
func (d *Derive) uncharge(n int64) {
	if d.Spill != nil {
		d.Spill.Budget.Release(n)
		d.charged -= n
	}
}

// Open implements Operator: scan, place, derive, and build the output rows.
func (d *Derive) Open() error {
	d.release()
	src, err := d.load()
	if err != nil {
		return err
	}
	d.parts, d.stored = len(src.parts), len(src.vals)

	// Each partition emits its body 1…n_p, or in complete mode its stored
	// positions lo…n_p+l_x.
	first, emit := 1, func(p *seqPart) int { return p.n }
	if d.Complete {
		first, emit = src.lo, func(p *seqPart) int { return p.rows }
	}
	rows := 0
	for i := range src.parts {
		rows += emit(&src.parts[i])
	}
	// The output rows stay until Close; the derived values go with Open, like
	// the slab they come from.
	d.charge(int64(rows) * (int64(unsafe.Sizeof(sqltypes.Row{})) + int64(len(d.cols))*int64(unsafe.Sizeof(sqltypes.Datum{}))))
	out := make([]float64, rows)
	derived := int64(rows) * 8
	d.charge(derived)
	defer d.uncharge(derived + int64(len(src.vals))*8)
	cells := make([]sqltypes.Datum, rows*len(d.cols))
	d.rows = make([]sqltypes.Row, rows)
	done := 0
	for i := range src.parts {
		if err := ctxErr(d.Ctx); err != nil {
			return err
		}
		p := &src.parts[i]
		y := out[done : done+emit(p)]
		if err := src.slab(p).Derive(src.in.Algo, y, first, d.Target); err != nil {
			return err
		}
		if d.Agg != d.In.Agg {
			// AVG = SUM/COUNT; a window that holds no raw value sums to 0,
			// which stays the quotient.
			for k := range y {
				y[k] /= float64(max(d.Target.Count(first+k, p.n), 1))
			}
		}
		for k, v := range y {
			pos := first + k
			row := cells[(done+k)*len(d.cols) : (done+k+1)*len(d.cols) : (done+k+1)*len(d.cols)]
			for c, col := range d.cols {
				switch col.Kind {
				case sqlparser.DerivePos:
					row[c] = sqltypes.NewInt(int64(pos))
				case sqlparser.DerivePart:
					row[c] = p.key
				case sqlparser.DeriveBody:
					row[c] = sqltypes.NewBool(pos >= 1 && pos <= p.n)
				default:
					row[c] = d.value(v)
				}
			}
			d.rows[done+k] = row
		}
		done += len(y)
	}
	return nil
}

// value types a derived value as the view's val column: an INTEGER view
// answers in INTEGER, as its rows and the SQL pattern over them do.
func (d *Derive) value(v float64) sqltypes.Datum {
	if d.valType == sqltypes.Int {
		return sqltypes.NewInt(int64(v))
	}
	return sqltypes.NewFloat(v)
}

// takeRows implements rowsHandoff.
func (d *Derive) takeRows() []sqltypes.Row {
	rows := d.rows[d.next:]
	d.rows, d.next = nil, 0
	return rows
}

// Next implements Operator.
func (d *Derive) Next() (sqltypes.Row, error) {
	if d.next >= len(d.rows) {
		return nil, nil
	}
	row := d.rows[d.next]
	d.next++
	return row, nil
}

// Close implements Operator.
func (d *Derive) Close() error {
	d.release()
	return d.In.Scan.Close()
}

func (d *Derive) release() {
	if d.charged > 0 {
		d.Spill.Budget.Release(d.charged)
		d.charged = 0
	}
	d.rows, d.next = nil, 0
}

// Describe implements Operator: the view, the algorithm and the paper's
// coverage factors, as the strategy header labels them, and the aggregate
// when it is not the view's. The partition and stored-row counts, and the
// directory slots its scan visited to find those rows, are those of the last
// execution, so they show in EXPLAIN ANALYZE and the slow-query log but not
// in a plan that has not run.
func (d *Derive) Describe() string {
	in, dl, dh, wx := &d.In, 0, 0, 0
	if !in.Win.Cumulative && !d.Target.Cumulative {
		dl, dh, wx = d.Target.Preceding-in.Win.Preceding, d.Target.Following-in.Win.Following, in.Win.Size()
	}
	s := fmt.Sprintf("Derive view=%s algo=%s Δl=%d Δh=%d Wx=%d", in.View, in.Algo, dl, dh, wx)
	if d.Agg != in.Agg {
		s += " agg=" + d.Agg.String()
	}
	if d.stored > 0 {
		s += fmt.Sprintf(" parts=%d rows=%d slots=%d", d.parts, d.stored, slotsVisited(d.In.Scan))
	}
	return s
}

// Children implements Operator.
func (d *Derive) Children() []Operator { return []Operator{d.In.Scan} }
