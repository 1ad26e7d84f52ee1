package txn

import (
	"slices"
	"testing"
)

// slot is a SlotRef that records what the commit protocol did to it.
type slot struct {
	name    string
	epoch   uint64    // the epoch CommitWrite stamped, 0 if none
	log     *[]string // AbortWrite appends name here
	op      Op
	aborted bool
}

func (s *slot) CommitWrite(op Op, epoch uint64) { s.op, s.epoch = op, epoch }

func (s *slot) AbortWrite(op Op) {
	s.op, s.aborted = op, true
	*s.log = append(*s.log, s.name)
}

// table is a Written that counts version bumps.
type table struct{ bumps int }

func (t *table) BumpVersion()          { t.bumps++ }
func (t *table) Reclaim() (int, error) { return 0, nil }

func TestBeginIDs(t *testing.T) {
	c := NewClock()
	seen := map[uint64]bool{}
	var last uint64
	for i := 0; i < 5; i++ {
		tx := c.Begin()
		if tx.ID == 0 || tx.ID <= last || seen[tx.ID] {
			t.Fatalf("Begin %d: id %d after %d, want a fresh nonzero increasing id", i, tx.ID, last)
		}
		if tx.Snap.TxnID != tx.ID || tx.Snap.Epoch != c.Now() {
			t.Fatalf("Begin %d: snapshot %+v, want epoch %d owned by %d", i, tx.Snap, c.Now(), tx.ID)
		}
		seen[tx.ID], last = true, tx.ID
		tx.Release()
	}
}

func TestCommitPublishesOneEpoch(t *testing.T) {
	c := NewClock()
	var aborts []string
	a, b := &slot{name: "a", log: &aborts}, &slot{name: "b", log: &aborts}
	tbl := &table{}

	tx := c.Begin()
	tx.Record(a, OpInsert)
	tx.Record(b, OpDelete)
	tx.Touch(tbl)
	tx.Touch(tbl) // deduplicated: one bump per commit
	if !tx.HasWrites() {
		t.Fatal("a transaction with recorded writes reports none")
	}
	before := Snapshot{Epoch: c.Now()}
	next := c.Next()
	var stamped uint64
	c.Commit(tx, func(epoch uint64) {
		stamped = epoch
		if c.Now() != next-1 {
			t.Error("the stamp step ran after the clock published")
		}
	})
	if a.epoch != next || b.epoch != next || stamped != next {
		t.Fatalf("write-set stamped at %d and %d, stamp step at %d; want all at %d", a.epoch, b.epoch, stamped, next)
	}
	if a.op != OpInsert || b.op != OpDelete || a.aborted || b.aborted {
		t.Fatalf("slots saw op %v/%v aborted %v/%v", a.op, b.op, a.aborted, b.aborted)
	}
	if c.Now() != next {
		t.Fatalf("clock at %d after the commit, want %d", c.Now(), next)
	}
	if tbl.bumps != 1 {
		t.Fatalf("touched table bumped %d times, want 1", tbl.bumps)
	}
	if c.Oldest() != Infinity {
		t.Fatalf("the committed transaction still holds a snapshot at %d", c.Oldest())
	}
	// The commit is visible at its epoch and to no earlier snapshot.
	if Visible(next, Infinity, before) || !Visible(next, Infinity, Snapshot{Epoch: next}) {
		t.Fatal("the commit's versions are visible before its epoch or invisible at it")
	}

	// A pending insert is its owner's alone until the commit stamps it.
	tx2 := c.Begin()
	pending := PendingStamp(tx2.ID)
	if !Pending(pending) || Owner(pending) != tx2.ID {
		t.Fatalf("pending stamp %x does not carry owner %d", pending, tx2.ID)
	}
	if !Visible(pending, Infinity, tx2.Snap) || Visible(pending, Infinity, Snapshot{Epoch: c.Now()}) {
		t.Fatal("a pending insert's visibility is wrong for its owner or another snapshot")
	}
	tx2.Abort()
}

func TestAbortToRestoresInReverse(t *testing.T) {
	c := NewClock()
	var aborts []string
	tx := c.Begin()
	tx.Record(&slot{name: "a", log: &aborts}, OpInsert)
	tx.AddDelta(Delta{Table: "t"})
	w, d := tx.Mark()
	tx.Record(&slot{name: "b", log: &aborts}, OpInsert)
	tx.Record(&slot{name: "c", log: &aborts}, OpDelete)
	tx.AddDelta(Delta{Table: "t"})
	tx.AbortTo(w, d)
	if !slices.Equal(aborts, []string{"c", "b"}) || len(tx.Deltas) != 1 {
		t.Fatalf("statement rollback undid %v and kept %d deltas, want [c b] and 1", aborts, len(tx.Deltas))
	}
	tx.Abort()
	if !slices.Equal(aborts, []string{"c", "b", "a"}) || len(tx.Deltas) != 0 || tx.HasWrites() {
		t.Fatalf("abort undid %v, kept %d deltas", aborts, len(tx.Deltas))
	}
	if c.Oldest() != Infinity {
		t.Fatal("an aborted transaction still holds its snapshot")
	}
}

// commitEmpty advances the clock by one commit.
func commitEmpty(c *Clock) { c.Commit(c.Begin(), nil) }

func TestHorizonIsOldestOpenSnapshot(t *testing.T) {
	c := NewClock()
	if c.Oldest() != Infinity || c.Horizon() != c.Now() {
		t.Fatalf("empty registry: oldest %d horizon %d, want Infinity and the clock", c.Oldest(), c.Horizon())
	}
	commitEmpty(c)
	r1, e1 := c.Register()
	commitEmpty(c)
	commitEmpty(c)
	r2, e2 := c.Register()
	commitEmpty(c)
	if e1 >= e2 {
		t.Fatalf("snapshots at %d then %d, want increasing", e1, e2)
	}
	if c.Horizon() != e1 {
		t.Fatalf("horizon %d with snapshots at %d and %d open, want %d", c.Horizon(), e1, e2, e1)
	}
	r1.Release()
	if c.Horizon() != e2 {
		t.Fatalf("horizon %d after releasing %d, want %d", c.Horizon(), e1, e2)
	}
	r2.Release()
	if c.Horizon() != c.Now() || c.Oldest() != Infinity {
		t.Fatalf("horizon %d oldest %d with no snapshot open, want the clock %d", c.Horizon(), c.Oldest(), c.Now())
	}
	Reg{}.Release() // the zero registration releases nothing
}

// TestRegistryGrows: more readers than one chunk of slots all register, the
// horizon stays the oldest, and every slot frees on release.
func TestRegistryGrows(t *testing.T) {
	c := NewClock()
	var regs []Reg
	var first uint64
	for i := 0; i < 3*regChunkSlots; i++ {
		r, e := c.Register()
		if i == 0 {
			first = e
		}
		regs = append(regs, r)
		commitEmpty(c)
	}
	if got := len(c.reg.load()); got < 3 {
		t.Fatalf("%d chunks for %d readers", got, len(regs))
	}
	if c.Horizon() != first {
		t.Fatalf("horizon %d, want the first reader's %d", c.Horizon(), first)
	}
	for _, r := range regs {
		r.Release()
	}
	if c.Oldest() != Infinity {
		t.Fatalf("oldest %d after every release", c.Oldest())
	}
}
