package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"

	"rfview"
)

// The oracle is the paper's reference model: the harness keeps its own copy
// of the generated rows and evaluates every checked statement naively
// (rfview.SeqComputeNaive, per partition) over that copy.

// rows is a statement's result, as numbers: from the engine's datums or from
// the client's decoded JSON. NULL reads NaN.
type rows interface {
	len() int
	at(i, j int) float64
}

func closeEnough(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// seqShadow mirrors one sequence table. Writes are increments, counted when
// sent (started) and when acknowledged (acked): a read that overlaps writes
// of another connection must lie between the state of all writes acknowledged
// before it was sent and the state of all writes started before it returned.
// Both bounds are exact states, and SUM and MAX are monotone in increments,
// so the check stays exact whenever no write is in flight.
type seqShadow struct {
	base           []int64
	started, acked []atomic.Int64
}

func newSeqShadow(t seqTable) *seqShadow {
	return &seqShadow{base: t.vals, started: make([]atomic.Int64, len(t.vals)), acked: make([]atomic.Int64, len(t.vals))}
}

func (s *seqShadow) state(incr []atomic.Int64) []float64 {
	out := make([]float64, len(s.base))
	for i, v := range s.base {
		out[i] = float64(v + incr[i].Load())
	}
	return out
}

func (s *seqShadow) lower() []float64 { return s.state(s.acked) }
func (s *seqShadow) upper() []float64 { return s.state(s.started) }

// checkSeqQuery checks a (pos, value) result of window w against the naive
// evaluation over the lower and upper states.
func checkSeqQuery(w winSpec, lo, hi []float64, got rows) error {
	n := len(lo)
	if got.len() != n {
		return fmt.Errorf("%d rows, want %d", got.len(), n)
	}
	sLo, err := rfview.SeqComputeNaive(lo, w.win, w.agg)
	if err != nil {
		return err
	}
	sHi, err := rfview.SeqComputeNaive(hi, w.win, w.agg)
	if err != nil {
		return err
	}
	seen := make([]bool, n+1)
	for i := 0; i < n; i++ {
		pos := int(got.at(i, 0))
		if pos < 1 || pos > n || seen[pos] {
			return fmt.Errorf("row %d: position %d out of range or repeated", i, pos)
		}
		seen[pos] = true
		v, a, b := got.at(i, 1), sLo.At(pos), sHi.At(pos)
		if !(closeEnough(v, a) || closeEnough(v, b) || (v > a && v < b)) {
			return fmt.Errorf("pos %d: got %v, want %v..%v", pos, v, a, b)
		}
	}
	return nil
}

// checkSeqTable checks SELECT pos, val FROM <table> against the state.
func checkSeqTable(state []float64, got rows) error {
	if got.len() != len(state) {
		return fmt.Errorf("%d rows, want %d", got.len(), len(state))
	}
	for i := 0; i < got.len(); i++ {
		pos := int(got.at(i, 0))
		if pos < 1 || pos > len(state) || got.at(i, 1) != state[pos-1] {
			return fmt.Errorf("pos %d: got %v", pos, got.at(i, 1))
		}
	}
	return nil
}

// checkSeqView checks SELECT pos, val FROM <view>: a view stores the complete
// sequence, header and trailer included.
func checkSeqView(w winSpec, state []float64, got rows) error {
	s, err := rfview.SeqComputeNaive(state, w.win, w.agg)
	if err != nil {
		return err
	}
	if got.len() != s.Len() {
		return fmt.Errorf("%d rows, want %d", got.len(), s.Len())
	}
	for i := 0; i < got.len(); i++ {
		pos := int(got.at(i, 0))
		want, ok := s.AtOK(pos)
		if pos < s.Lo() || pos > s.Hi() || !ok || !closeEnough(got.at(i, 1), want) {
			return fmt.Errorf("pos %d: got %v, want %v", pos, got.at(i, 1), want)
		}
	}
	return nil
}

// checkTxQuery checks a credit-card query: column 0 is c_txid, column 1+j the
// j-th window clause.
func checkTxQuery(st stmt, data []txRow, got rows) error {
	var kept []txRow // in txid order, as data is
	for _, r := range data {
		if r.amount >= st.minAmount {
			kept = append(kept, r)
		}
	}
	if got.len() != len(kept) {
		return fmt.Errorf("%d rows, want %d", got.len(), len(kept))
	}
	want := make([][]float64, len(data)+1) // by txid
	for j, w := range st.wins {
		parts := map[int][]int{} // partition key -> indices into kept
		for i, r := range kept {
			k := r.cust
			if w.part == partLoc {
				k = r.loc
			}
			parts[k] = append(parts[k], i)
		}
		for _, idx := range parts {
			raw := make([]float64, len(idx))
			for p, i := range idx {
				raw[p] = float64(kept[i].amount)
			}
			s, err := rfview.SeqComputeNaive(raw, w.win, w.agg)
			if err != nil {
				return err
			}
			for p, i := range idx {
				id := kept[i].txid
				if want[id] == nil {
					want[id] = make([]float64, len(st.wins))
				}
				want[id][j] = s.At(p + 1)
			}
		}
	}
	for i := 0; i < got.len(); i++ {
		id := int(got.at(i, 0))
		if id < 1 || id > len(data) || want[id] == nil {
			return fmt.Errorf("row %d: c_txid %d unexpected or repeated", i, id)
		}
		for j := range st.wins {
			if v := got.at(i, 1+j); !closeEnough(v, want[id][j]) {
				return fmt.Errorf("c_txid %d clause %d: got %v, want %v", id, j, v, want[id][j])
			}
		}
		want[id] = nil
	}
	return nil
}

// checksum is an order-independent digest of a result, for comparing the
// same statement between scan_window and scan_window_oocore.
func checksum(got rows, cols int) uint64 {
	var sum uint64
	var buf [8]byte
	for i := 0; i < got.len(); i++ {
		h := fnv.New64a()
		for j := 0; j < cols; j++ {
			bits := math.Float64bits(got.at(i, j))
			for k := range buf {
				buf[k] = byte(bits >> (8 * k))
			}
			h.Write(buf[:])
		}
		sum += h.Sum64()
	}
	return sum
}
