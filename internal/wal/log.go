package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy controls when appended records reach stable storage.
type SyncPolicy int

// The -fsync policy knob.
const (
	// SyncAlways fsyncs after every append: an acknowledged statement is
	// durable before the engine applies it.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background ticker; a crash can lose up to
	// one interval of acknowledged statements.
	SyncInterval
	// SyncOff never fsyncs; durability is whatever the OS page cache
	// survives. Process death (kill -9) loses nothing, power loss may.
	SyncOff
)

// ParseSyncPolicy maps the -fsync flag values onto policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or off)", s)
}

// DefaultSegmentBytes rotates segments at 4 MiB.
const DefaultSegmentBytes = 4 << 20

// DefaultSyncInterval is the flush cadence under SyncInterval.
const DefaultSyncInterval = 100 * time.Millisecond

// Log is a segmented append-only record log. It is safe for concurrent use,
// though the engine's exclusive write lock already serializes appends.
type Log struct {
	dir          string // <dataDir>/wal
	policy       SyncPolicy
	segmentBytes int64

	mu      sync.Mutex
	f       *os.File
	size    int64
	nextLSN uint64
	dirty   bool // unsynced appends under SyncInterval

	// ObserveFsync, when set, receives the duration of every segment fsync.
	// Set it before the log sees concurrent use (the manager wires it at
	// open time).
	ObserveFsync func(time.Duration)

	stop chan struct{}
	done chan struct{}
}

// segDir returns the segment directory under a data directory.
func segDir(dataDir string) string { return filepath.Join(dataDir, "wal") }

func segName(firstLSN uint64) string { return fmt.Sprintf("wal-%016x.seg", firstLSN) }

// segFirstLSN parses the first-LSN out of a segment file name, reporting
// ok=false for files that are not segments.
func segFirstLSN(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// openLog starts a fresh segment whose first record will carry nextLSN.
// Existing segments are left alone; recovery reads them, checkpoints delete
// them.
func openLog(dataDir string, nextLSN uint64, policy SyncPolicy, segmentBytes int64, interval time.Duration) (*Log, error) {
	if segmentBytes <= 0 {
		segmentBytes = DefaultSegmentBytes
	}
	if interval <= 0 {
		interval = DefaultSyncInterval
	}
	if err := os.MkdirAll(segDir(dataDir), 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: segDir(dataDir), policy: policy, segmentBytes: segmentBytes, nextLSN: nextLSN}
	if err := l.rotateLocked(); err != nil {
		return nil, err
	}
	if policy == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.flusher(interval)
	}
	return l, nil
}

// rotateLocked closes the current segment (if any) and opens a new one named
// after the next LSN. Callers hold l.mu (or own the log exclusively).
//
// O_TRUNC, not O_EXCL: an existing file with this name can only hold records
// already covered by a snapshot (a checkpoint rotating before any append) or
// records beyond a tear that recovery refused to replay — both discardable by
// construction, never records the engine still depends on.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if err := l.syncFile(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	path := filepath.Join(l.dir, segName(l.nextLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := writeMagic(f); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.size = int64(len(segMagic))
	return syncDir(l.dir)
}

// Append logs one statement and returns its LSN. Under SyncAlways the record
// is on stable storage when Append returns.
func (l *Log) Append(sql string) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, fmt.Errorf("wal: log is closed")
	}
	lsn := l.nextLSN
	buf := appendRecord(nil, Record{LSN: lsn, SQL: sql})
	if _, err := l.f.Write(buf); err != nil {
		return 0, err
	}
	l.nextLSN++
	l.size += int64(len(buf))
	switch l.policy {
	case SyncAlways:
		if err := l.syncFile(); err != nil {
			return 0, err
		}
	case SyncInterval:
		l.dirty = true
	}
	if l.size >= l.segmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// LastLSN returns the LSN of the most recently appended record, or
// nextLSN-1 == the pre-open value when nothing has been appended yet.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Sync forces buffered records to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.f == nil {
		return nil
	}
	l.dirty = false
	return l.syncFile()
}

// syncFile fsyncs the active segment, timing it for the fsync-latency
// histogram. Callers hold l.mu and have checked l.f != nil.
func (l *Log) syncFile() error {
	start := time.Now()
	err := l.f.Sync()
	if l.ObserveFsync != nil {
		l.ObserveFsync(time.Since(start))
	}
	return err
}

// Truncate deletes every segment whose records are all ≤ throughLSN (they
// are covered by a snapshot) or all past it (they follow a tear), and starts
// a fresh segment. It is the log half of a checkpoint.
func (l *Log) Truncate(throughLSN uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nextLSN <= throughLSN {
		l.nextLSN = throughLSN + 1
	}
	if err := l.rotateLocked(); err != nil {
		return err
	}
	segs, err := listSegments(filepath.Dir(l.dir))
	if err != nil {
		return err
	}
	// A segment is disposable when the *next* segment starts at or below
	// throughLSN+1 — then every record it holds is ≤ throughLSN — and when
	// it starts past throughLSN but is not the fresh segment just opened at
	// nextLSN: it holds records past a tear, which recovery discarded.
	for i, s := range segs {
		covered := i+1 < len(segs) && segs[i+1].firstLSN <= throughLSN+1
		if covered || s.firstLSN > throughLSN && s.firstLSN != l.nextLSN {
			if err := os.Remove(s.path); err != nil {
				return err
			}
		}
	}
	return syncDir(l.dir)
}

// Close stops the flusher, syncs, and closes the active segment.
func (l *Log) Close() error {
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

func (l *Log) flusher(interval time.Duration) {
	defer close(l.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.dirty {
				l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

type segment struct {
	path     string
	firstLSN uint64
}

// listSegments returns the data directory's segments sorted by first LSN.
func listSegments(dataDir string) ([]segment, error) {
	entries, err := os.ReadDir(segDir(dataDir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		if lsn, ok := segFirstLSN(e.Name()); ok {
			segs = append(segs, segment{path: filepath.Join(segDir(dataDir), e.Name()), firstLSN: lsn})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}

// ReadTail reads every record with LSN > afterLSN from the data directory's
// segments, in order, applying the torn-tail rule: the log is one unbroken
// LSN sequence, so reading stops — without error — at the first incomplete
// or corrupt record, or the first that is not its predecessor's LSN + 1, in
// whichever segment. Every record after a tear is discarded, even where its
// CRC passes: the sequence has a hole. A log that does not continue from
// afterLSN — its oldest segment or first record past afterLSN+1 — is a
// GapError.
func ReadTail(dataDir string, afterLSN uint64) ([]Record, error) {
	recs, _, err := readTail(dataDir, afterLSN)
	return recs, err
}

// readTail is ReadTail, also counting the intact records past the tear.
func readTail(dataDir string, afterLSN uint64) (out []Record, discarded int, err error) {
	segs, err := listSegments(dataDir)
	if err != nil {
		return nil, 0, err
	}
	if len(segs) > 0 && segs[0].firstLSN > afterLSN+1 {
		return nil, 0, &GapError{SnapshotLSN: afterLSN, FirstLSN: segs[0].firstLSN}
	}
	torn := false
	for _, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			return nil, 0, err
		}
		body, err := checkMagic(data)
		if err != nil {
			torn = true // a segment file without a valid header is a tear at offset 0
			continue
		}
		recs, _, ok := readRecords(body)
		for _, r := range recs {
			switch {
			case torn || len(out) > 0 && r.LSN != out[len(out)-1].LSN+1:
				torn = true
				discarded++
			case r.LSN <= afterLSN:
			case len(out) == 0 && r.LSN != afterLSN+1:
				return nil, 0, &GapError{SnapshotLSN: afterLSN, FirstLSN: r.LSN}
			default:
				out = append(out, r)
			}
		}
		torn = torn || !ok
	}
	return out, discarded, nil
}

// syncDir fsyncs a directory so renames and removals inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
