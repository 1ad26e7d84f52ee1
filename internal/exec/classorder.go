package exec

// ClassOrderMeta is the execution-time handshake between one shared class
// Sort and the Window operators stacked directly above it (see plan's
// shared-sort pass). The sort already compares every adjacent row pair while
// ordering the class stream, so it records, for each emitted position, how
// many leading sort keys equal the previous row's — and the windows read
// partition boundaries and ORDER BY tie runs straight off that table instead
// of each re-evaluating its keys over the whole stream.
//
// Only the in-memory sort produces the metadata; an external (spilled) sort
// leaves it invalid, and consumers fall back to their evaluating scans. The
// tie depths are Compare's equality, which the window's hash partitioning
// shares: -0.0 ties +0.0, and a NaN ties a NaN.
type ClassOrderMeta struct {
	// partKeys is the class's canonical partition key count — how many
	// leading sort keys are partition keys. Set by the planner; fixed across
	// executions. Members use it (not their own PartitionBy length) so
	// duplicate partition keys cannot skew the boundary threshold.
	partKeys int

	tieDepth []int32
	valid    bool
}

// NewClassOrderMeta builds the metadata slot for one class sort whose first
// partKeys keys are the class partition keys.
func NewClassOrderMeta(partKeys int) *ClassOrderMeta {
	return &ClassOrderMeta{partKeys: partKeys}
}

// reset invalidates the metadata at the start of an execution; the sort
// refills it only when it sorts in memory.
func (m *ClassOrderMeta) reset() {
	if m != nil {
		m.valid = false
	}
}

// Valid reports whether the metadata describes a stream of exactly n rows.
func (m *ClassOrderMeta) Valid(n int) bool {
	return m != nil && m.valid && len(m.tieDepth) == n
}

// PartKeys returns the class's canonical partition key count.
func (m *ClassOrderMeta) PartKeys() int { return m.partKeys }

// TieDepths returns the adjacency table: entry i is the number of leading
// sort keys on which stream rows i-1 and i compare equal (entry 0 is 0).
func (m *ClassOrderMeta) TieDepths() []int32 { return m.tieDepth }
