package storage

import (
	"sort"

	"rfview/internal/sqltypes"
)

// BTree is an in-memory B+tree index over datum-tuple keys, the one access
// path besides the heap scan. Entries live in the leaves, which are chained
// for range scans; internal nodes hold copied-up separators. Duplicate keys
// are allowed (the table layer enforces uniqueness where declared) and are
// disambiguated by row id, so every stored entry is unique and deletes are
// exact.
//
// The tree uses minimum degree t: nodes hold at most 2t−1 keys and (except
// the root) at least t−1.
type BTree struct {
	root *btNode
	n    int
}

const btreeT = 32 // minimum degree

const (
	btMaxKeys = 2*btreeT - 1
	btMinKeys = btreeT - 1
)

type btEntry struct {
	key sqltypes.Row
	id  RowID
}

type btNode struct {
	leaf     bool
	entries  []btEntry // leaf: data entries; internal: separators
	children []*btNode // internal only: len(entries)+1
	next     *btNode   // leaf chain
}

// NewBTree returns an empty ordered index.
func NewBTree() *BTree {
	return &BTree{root: &btNode{leaf: true}}
}

// Len returns the number of entries.
func (t *BTree) Len() int { return t.n }

// compareKeyPrefix compares a full stored key against a (possibly shorter)
// probe: only the probe's columns participate, so a probe acts as a prefix
// range. NULLs sort first.
func compareKeyPrefix(stored, probe sqltypes.Row) int {
	for i := range probe {
		if i >= len(stored) {
			return -1
		}
		c, err := sqltypes.Compare(stored[i], probe[i])
		if err != nil {
			// Heterogeneous keys cannot happen through the catalog; order
			// arbitrarily but deterministically by type tag.
			if stored[i].Typ() != probe[i].Typ() {
				if stored[i].Typ() < probe[i].Typ() {
					return -1
				}
				return 1
			}
			return 0
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// entryLess orders full entries: key columns first, row id as tiebreak.
func entryLess(a, b btEntry) bool {
	c := compareKeyPrefix(a.key, b.key)
	if c != 0 {
		return c < 0
	}
	return a.id < b.id
}

// childIndex returns the child to descend into for entry e: the first child
// whose separator is greater than e (equal separators send us right, because
// separators are copied up from the first entry of the right sibling).
func (nd *btNode) childIndex(e btEntry) int {
	return sort.Search(len(nd.entries), func(i int) bool {
		return entryLess(e, nd.entries[i])
	})
}

// Insert adds (key, id).
func (t *BTree) Insert(key sqltypes.Row, id RowID) {
	e := btEntry{key: key, id: id}
	if len(t.root.entries) == btMaxKeys {
		old := t.root
		t.root = &btNode{children: []*btNode{old}}
		t.root.splitChild(0)
	}
	t.root.insertNonFull(e)
	t.n++
}

// splitChild splits the full child at position i, pushing (internal) or
// copying (leaf) a separator into nd.
func (nd *btNode) splitChild(i int) {
	child := nd.children[i]
	var sep btEntry
	right := &btNode{leaf: child.leaf}
	if child.leaf {
		mid := len(child.entries) / 2
		right.entries = append(right.entries, child.entries[mid:]...)
		child.entries = child.entries[:mid:mid]
		right.next = child.next
		child.next = right
		sep = right.entries[0] // copy-up
	} else {
		mid := len(child.entries) / 2
		sep = child.entries[mid] // move-up
		right.entries = append(right.entries, child.entries[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.entries = child.entries[:mid:mid]
		child.children = child.children[: mid+1 : mid+1]
	}
	nd.entries = append(nd.entries, btEntry{})
	copy(nd.entries[i+1:], nd.entries[i:])
	nd.entries[i] = sep
	nd.children = append(nd.children, nil)
	copy(nd.children[i+2:], nd.children[i+1:])
	nd.children[i+1] = right
}

func (nd *btNode) insertNonFull(e btEntry) {
	if nd.leaf {
		i := sort.Search(len(nd.entries), func(j int) bool {
			return entryLess(e, nd.entries[j])
		})
		nd.entries = append(nd.entries, btEntry{})
		copy(nd.entries[i+1:], nd.entries[i:])
		nd.entries[i] = e
		return
	}
	i := nd.childIndex(e)
	if len(nd.children[i].entries) == btMaxKeys {
		nd.splitChild(i)
		if entryLess(nd.entries[i], e) || !entryLess(e, nd.entries[i]) {
			// e >= separator: descend right of the new separator.
			i++
		}
	}
	nd.children[i].insertNonFull(e)
}

// Delete removes (key, id), reporting whether the entry was present.
func (t *BTree) Delete(key sqltypes.Row, id RowID) bool {
	e := btEntry{key: key, id: id}
	found := t.deleteEntry(t.root, e)
	if found {
		t.n--
	}
	if !t.root.leaf && len(t.root.entries) == 0 {
		t.root = t.root.children[0]
	}
	return found
}

// deleteEntry removes e from the subtree at nd, keeping every visited child
// above the minimum occupancy before descending (preemptive rebalancing).
func (t *BTree) deleteEntry(nd *btNode, e btEntry) bool {
	if nd.leaf {
		i := sort.Search(len(nd.entries), func(j int) bool {
			return !entryLess(nd.entries[j], e)
		})
		if i < len(nd.entries) && !entryLess(e, nd.entries[i]) && !entryLess(nd.entries[i], e) {
			nd.entries = append(nd.entries[:i], nd.entries[i+1:]...)
			return true
		}
		return false
	}
	i := nd.childIndex(e)
	if len(nd.children[i].entries) == btMinKeys {
		nd.fixChild(i)
		i = nd.childIndex(e) // structure changed; re-aim
	}
	return t.deleteEntry(nd.children[i], e)
}

// fixChild grows child i above the minimum by borrowing from a sibling or
// merging with one.
func (nd *btNode) fixChild(i int) {
	if i > 0 && len(nd.children[i-1].entries) > btMinKeys {
		nd.borrowLeft(i)
		return
	}
	if i < len(nd.children)-1 && len(nd.children[i+1].entries) > btMinKeys {
		nd.borrowRight(i)
		return
	}
	if i > 0 {
		nd.mergeChildren(i - 1)
	} else {
		nd.mergeChildren(i)
	}
}

func (nd *btNode) borrowLeft(i int) {
	child, left := nd.children[i], nd.children[i-1]
	if child.leaf {
		last := left.entries[len(left.entries)-1]
		left.entries = left.entries[:len(left.entries)-1]
		child.entries = append([]btEntry{last}, child.entries...)
		nd.entries[i-1] = child.entries[0] // refresh copied-up separator
	} else {
		// Rotate through the parent separator.
		child.entries = append([]btEntry{nd.entries[i-1]}, child.entries...)
		nd.entries[i-1] = left.entries[len(left.entries)-1]
		left.entries = left.entries[:len(left.entries)-1]
		child.children = append([]*btNode{left.children[len(left.children)-1]}, child.children...)
		left.children = left.children[:len(left.children)-1]
	}
}

func (nd *btNode) borrowRight(i int) {
	child, right := nd.children[i], nd.children[i+1]
	if child.leaf {
		first := right.entries[0]
		right.entries = right.entries[1:]
		child.entries = append(child.entries, first)
		nd.entries[i] = right.entries[0]
	} else {
		child.entries = append(child.entries, nd.entries[i])
		nd.entries[i] = right.entries[0]
		right.entries = right.entries[1:]
		child.children = append(child.children, right.children[0])
		right.children = right.children[1:]
	}
}

// mergeChildren merges child i+1 into child i, absorbing separator i.
func (nd *btNode) mergeChildren(i int) {
	left, right := nd.children[i], nd.children[i+1]
	if left.leaf {
		left.entries = append(left.entries, right.entries...)
		left.next = right.next
	} else {
		left.entries = append(left.entries, nd.entries[i])
		left.entries = append(left.entries, right.entries...)
		left.children = append(left.children, right.children...)
	}
	nd.entries = append(nd.entries[:i], nd.entries[i+1:]...)
	nd.children = append(nd.children[:i+1], nd.children[i+2:]...)
}

// seekLeaf descends to the first leaf that may contain an entry whose key
// prefix-compares >= probe. A nil probe lands on the leftmost leaf.
func (t *BTree) seekLeaf(probe sqltypes.Row) *btNode {
	nd := t.root
	for !nd.leaf {
		i := sort.Search(len(nd.entries), func(j int) bool {
			return compareKeyPrefix(nd.entries[j].key, probe) >= 0
		})
		nd = nd.children[i]
	}
	return nd
}

// Range invokes fn for every entry with from <= key <= to under
// prefix comparison, in key order. Either bound may be nil.
func (t *BTree) Range(from, to sqltypes.Row, fn func(key sqltypes.Row, id RowID) bool) {
	var leaf *btNode
	if from == nil {
		leaf = t.seekLeaf(nil)
	} else {
		leaf = t.seekLeaf(from)
	}
	for leaf != nil {
		for _, e := range leaf.entries {
			if from != nil && compareKeyPrefix(e.key, from) < 0 {
				continue
			}
			if to != nil && compareKeyPrefix(e.key, to) > 0 {
				return
			}
			if !fn(e.key, e.id) {
				return
			}
		}
		leaf = leaf.next
	}
}

// Lookup invokes fn for every row id stored under key: exact (or prefix, if
// key is shorter than the indexed column list) match.
func (t *BTree) Lookup(key sqltypes.Row, fn func(RowID) bool) {
	t.Range(key, key, func(_ sqltypes.Row, id RowID) bool {
		return fn(id)
	})
}

// First returns one row id stored under key.
func (t *BTree) First(key sqltypes.Row) (RowID, bool) {
	var out RowID
	found := false
	t.Lookup(key, func(id RowID) bool {
		out, found = id, true
		return false
	})
	return out, found
}

// check validates the structural invariants; used by tests.
func (t *BTree) check() error {
	return t.root.check(true, nil, nil)
}

func (nd *btNode) check(isRoot bool, lower, upper *btEntry) error {
	if !isRoot && len(nd.entries) < btMinKeys {
		return errUnderflow
	}
	if len(nd.entries) > btMaxKeys {
		return errOverflow
	}
	for i := 1; i < len(nd.entries); i++ {
		if entryLess(nd.entries[i], nd.entries[i-1]) {
			return errUnsorted
		}
	}
	if lower != nil && len(nd.entries) > 0 && entryLess(nd.entries[0], *lower) {
		return errBounds
	}
	if upper != nil && len(nd.entries) > 0 && !entryLess(nd.entries[len(nd.entries)-1], *upper) && nd.leaf {
		// Leaf entries must stay strictly below the upper separator only when
		// they are not equal to it (copy-up allows equality in the right
		// subtree); equality with the upper bound is a violation.
		if entryLess(*upper, nd.entries[len(nd.entries)-1]) {
			return errBounds
		}
	}
	if nd.leaf {
		return nil
	}
	if len(nd.children) != len(nd.entries)+1 {
		return errFanout
	}
	for i, child := range nd.children {
		var lo, hi *btEntry
		if i > 0 {
			lo = &nd.entries[i-1]
		} else {
			lo = lower
		}
		if i < len(nd.entries) {
			hi = &nd.entries[i]
		} else {
			hi = upper
		}
		if err := child.check(false, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

type btError string

func (e btError) Error() string { return string(e) }

const (
	errUnderflow btError = "btree: node underflow"
	errOverflow  btError = "btree: node overflow"
	errUnsorted  btError = "btree: entries out of order"
	errBounds    btError = "btree: entry violates separator bounds"
	errFanout    btError = "btree: children/entries fanout mismatch"
)
