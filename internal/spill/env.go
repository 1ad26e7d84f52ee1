package spill

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// runFilePrefix and runFileSuffix frame the spill-file namespace inside the
// temp directory; the startup sweep removes exactly this namespace and
// nothing else, so a data directory shared with the WAL stays untouched.
const (
	runFilePrefix = "run-"
	runFileSuffix = ".spill"
)

// Heap files — the paged-storage backing files in internal/storage — share
// the Env so they inherit the same lifecycle: swept at startup, removed at
// Close. The ".heap.tmp" suffix marks them as rebuildable scratch (the WAL
// plus snapshots are the durable copy), which is what licenses the sweep.
const (
	heapFilePrefix = "heap-"
	heapFileSuffix = ".heap.tmp"
)

// Env owns the directory spill runs live in. With a configured directory
// (the server's <data-dir>/tmp) the directory is created on first use and
// stale run files — left by a process that died mid-spill — are swept then;
// with no directory a private one is created under os.TempDir. Close removes
// every run file (and the private directory), so a clean shutdown leaves no
// trace. A directory must be owned by exactly one Env at a time, the same
// single-owner rule the WAL imposes on its data directory.
type Env struct {
	configured string // "" = private temp dir

	mu      sync.Mutex
	dir     string // resolved directory, once created
	private bool   // dir is ours alone: remove it wholesale on Close
	swept   int    // stale files removed by the startup sweep
	seq     atomic.Uint64
	closed  bool
}

// NewEnv returns an environment rooted at dir, or at a private temp
// directory when dir is empty. No filesystem work happens until the first
// run file is created (or Sweep is called), so engines that never spill
// never touch the disk.
func NewEnv(dir string) *Env {
	return &Env{configured: dir}
}

// Dir resolves the spill directory, creating it and sweeping stale run
// files on the first call.
func (e *Env) Dir() (string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dirLocked()
}

func (e *Env) dirLocked() (string, error) {
	if e.closed {
		return "", fmt.Errorf("spill: env closed")
	}
	if e.dir != "" {
		return e.dir, nil
	}
	if e.configured == "" {
		d, err := os.MkdirTemp("", "rfview-spill-")
		if err != nil {
			return "", fmt.Errorf("spill: temp dir: %w", err)
		}
		e.dir = d
		e.private = true
		return e.dir, nil
	}
	if err := os.MkdirAll(e.configured, 0o755); err != nil {
		return "", fmt.Errorf("spill: %w", err)
	}
	// The sweep runs before this env has created any file, so everything in
	// the namespace is a stale orphan from a dead owner.
	n, err := sweepDir(e.configured)
	if err != nil {
		return "", err
	}
	e.dir = e.configured
	e.swept = n
	return e.dir, nil
}

// Sweep eagerly resolves the directory (sweeping stale run files from a
// prior owner) and reports how many files have been removed. Servers call
// it at startup so a crash mid-spill cannot leak disk across restarts.
func (e *Env) Sweep() (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.dirLocked(); err != nil {
		return 0, err
	}
	return e.swept, nil
}

// sweepDir removes every run file and heap file in dir.
func sweepDir(dir string) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("spill: sweep: %w", err)
	}
	removed := 0
	for _, ent := range ents {
		name := ent.Name()
		isRun := strings.HasPrefix(name, runFilePrefix) && strings.HasSuffix(name, runFileSuffix)
		isHeap := strings.HasPrefix(name, heapFilePrefix) && strings.HasSuffix(name, heapFileSuffix)
		if !isRun && !isHeap {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err == nil {
			removed++
		}
	}
	return removed, nil
}

// CreateRun creates a fresh run file. The name embeds the pid (for
// debuggability of a crashed server's leftovers) and a per-env sequence
// number.
func (e *Env) CreateRun() (*os.File, error) {
	return e.create("run", fmt.Sprintf("%s%d-%d%s", runFilePrefix, os.Getpid(), e.seq.Add(1), runFileSuffix))
}

// CreateHeap creates a fresh heap file for a paged table. The tag (usually
// the table name, sanitized) makes a crashed server's leftovers attributable;
// the pid and sequence number make the name unique.
func (e *Env) CreateHeap(tag string) (*os.File, error) {
	return e.create("heap", fmt.Sprintf("%s%d-%d-%s%s", heapFilePrefix, os.Getpid(), e.seq.Add(1), sanitizeTag(tag), heapFileSuffix))
}

// create makes a new file of the given kind in the spill directory.
func (e *Env) create(kind, name string) (*os.File, error) {
	dir, err := e.Dir()
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("spill: create %s: %w", kind, err)
	}
	return f, nil
}

// sanitizeTag keeps heap-file names portable: anything outside a small safe
// alphabet becomes '_', and long tags are truncated.
func sanitizeTag(tag string) string {
	const maxTag = 40
	b := make([]byte, 0, len(tag))
	for i := 0; i < len(tag) && len(b) < maxTag; i++ {
		c := tag[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	if len(b) == 0 {
		return "t"
	}
	return string(b)
}

// Close removes this environment's run files; a private temp directory is
// removed wholesale. Idempotent.
func (e *Env) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	if e.dir == "" {
		return nil
	}
	if e.private {
		return os.RemoveAll(e.dir)
	}
	_, err := sweepDir(e.dir)
	return err
}
