package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A snapshot is the full engine state — catalog schema, table heaps, index
// definitions, materialized-view definitions and staleness — as one
// checksummed JSON document whose row lists are byte fields in the heap's
// row codec (sqltypes.EncodeRows). Snapshots are written to a temp file and
// atomically renamed into place, so a crash mid-write leaves the previous
// snapshot (and the full WAL) intact; only after the rename is durable does
// the checkpoint truncate the log.
//
// Layout: the 8-byte magic, uint32 LE body length, uint32 LE CRC32 (IEEE)
// of the body, then the body.

// snapMagic opens every snapshot this version writes and the only one it
// reads; a snapshot opened by an earlier "RFSNAP" magic is a FormatError.
const snapMagic = "RFSNAP03"

// Snapshot is the serialized engine state.
type Snapshot struct {
	// LSN is the last WAL record folded into this state; recovery replays
	// records with larger LSNs.
	LSN uint64 `json:"lsn"`
	// Tables holds every heap — base tables and view backing tables alike —
	// in sorted name order.
	Tables []SnapTable `json:"tables"`
	// Indexes holds every index definition; they are rebuilt from the
	// restored heaps rather than serialized structurally.
	Indexes []SnapIndex `json:"indexes"`
	// MatViews holds the materialized-view metadata; a view's rows are its
	// restored backing table.
	MatViews []SnapMatView `json:"matviews"`
}

// SnapColumn is one column of a dumped schema.
type SnapColumn struct {
	Name string `json:"name"`
	Type uint8  `json:"type"`
}

// SnapTable is one dumped heap.
type SnapTable struct {
	Name    string       `json:"name"`
	Columns []SnapColumn `json:"columns"`
	// Rows is the heap's rows as one sqltypes.EncodeRows list.
	Rows []byte `json:"rows"`
}

// SnapIndex is one dumped index definition.
type SnapIndex struct {
	Name    string   `json:"name"`
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
	Unique  bool     `json:"unique"`
}

// SnapWindow is the wire form of a view's core.Window.
type SnapWindow struct {
	Cumulative bool `json:"cumulative"`
	Preceding  int  `json:"preceding"`
	Following  int  `json:"following"`
}

// SnapMatView is one dumped materialized view.
type SnapMatView struct {
	Name       string     `json:"name"`
	Kind       uint8      `json:"kind"`
	Backing    string     `json:"backing"`
	BaseTable  string     `json:"base_table,omitempty"`
	PosColumn  string     `json:"pos_column,omitempty"`
	PartColumn string     `json:"part_column,omitempty"`
	ValColumn  string     `json:"val_column,omitempty"`
	Agg        string     `json:"agg,omitempty"`
	Window     SnapWindow `json:"window"`
	Definition string     `json:"definition"`
	Stale      bool       `json:"stale,omitempty"`
	StaleWhy   string     `json:"stale_why,omitempty"`
}

func snapName(lsn uint64) string { return fmt.Sprintf("snap-%016x.snap", lsn) }

// snapLSNOf parses the LSN out of a snapshot file name.
func snapLSNOf(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// writeSnapshot serializes snap to <dataDir>/snap-<lsn>.snap via a temp file
// and atomic rename, fsyncing the file before and the directory after.
func writeSnapshot(dataDir string, snap *Snapshot) error {
	body, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	var hdr [16]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(body))

	tmp, err := os.CreateTemp(dataDir, "snap-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if _, err := tmp.Write(hdr[:]); err != nil {
		cleanup()
		return err
	}
	if _, err := tmp.Write(body); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	final := filepath.Join(dataDir, snapName(snap.LSN))
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dataDir)
}

// readSnapshot loads and validates one snapshot file.
func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) >= 8 && string(data[:8]) != snapMagic && strings.HasPrefix(string(data[:8]), "RFSNAP") {
		return nil, &FormatError{Where: filepath.Base(path), Found: string(data[:8])}
	}
	if len(data) < 16 || string(data[:8]) != snapMagic {
		return nil, fmt.Errorf("wal: %s: bad snapshot magic", filepath.Base(path))
	}
	n := int(binary.LittleEndian.Uint32(data[8:12]))
	wantCRC := binary.LittleEndian.Uint32(data[12:16])
	if len(data)-16 < n {
		return nil, fmt.Errorf("wal: %s: truncated snapshot", filepath.Base(path))
	}
	body := data[16 : 16+n]
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, fmt.Errorf("wal: %s: snapshot checksum mismatch", filepath.Base(path))
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("wal: %s: %w", filepath.Base(path), err)
	}
	return &snap, nil
}

// listSnapshots returns snapshot paths sorted by LSN descending (newest
// first).
func listSnapshots(dataDir string) ([]string, error) {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	type cand struct {
		path string
		lsn  uint64
	}
	var cands []cand
	for _, e := range entries {
		if lsn, ok := snapLSNOf(e.Name()); ok {
			cands = append(cands, cand{path: filepath.Join(dataDir, e.Name()), lsn: lsn})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lsn > cands[j].lsn })
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.path
	}
	return out, nil
}

// loadNewestSnapshot returns the newest snapshot that validates, skipping
// corrupt ones (disk damage should degrade recovery, never prevent startup;
// ReadTail then refuses a log that no longer continues from the one loaded).
// A snapshot in an earlier format is not corrupt: it fails with a
// FormatError. It returns (nil, "", nil) when no usable snapshot exists.
func loadNewestSnapshot(dataDir string) (*Snapshot, string, error) {
	paths, err := listSnapshots(dataDir)
	if err != nil {
		return nil, "", err
	}
	for _, p := range paths {
		snap, err := readSnapshot(p)
		var ferr *FormatError
		switch {
		case err == nil:
			return snap, p, nil
		case errors.As(err, &ferr):
			return nil, "", err
		}
	}
	return nil, "", nil
}

// pruneSnapshots removes all but the newest two snapshots (the current one
// and one fallback) plus any leftover temp files.
func pruneSnapshots(dataDir string) error {
	paths, err := listSnapshots(dataDir)
	if err != nil {
		return err
	}
	for i, p := range paths {
		if i >= 2 {
			if err := os.Remove(p); err != nil {
				return err
			}
		}
	}
	tmps, _ := filepath.Glob(filepath.Join(dataDir, "snap-*.tmp"))
	for _, t := range tmps {
		os.Remove(t)
	}
	return syncDir(dataDir)
}
