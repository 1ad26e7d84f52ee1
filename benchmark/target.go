package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rfview"
	"rfview/internal/client"
	"rfview/internal/sqltypes"
)

// result is one statement's outcome as the harness sees it.
type result struct {
	rows     rows
	affected int
	// derived and cacheHit are only visible in process; over the wire derived
	// is inferred from the rewritten SQL the server returns.
	derived, cacheHit bool
}

// counters are the program's own running totals, read from outside: the
// engine's stats calls in process, the stats and metrics ops over the wire.
type counters map[string]float64

func (c counters) minus(o counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// target is the program under test: an engine in this process or an
// rfserverd child behind client connections.
type target interface {
	do(ctx context.Context, conn int, sql string, write bool) (result, error)
	counters() (counters, error)
	close()
}

// ---- library target -------------------------------------------------------

type engineRows []sqltypes.Row

func (r engineRows) len() int { return len(r) }
func (r engineRows) at(i, j int) float64 {
	if d := r[i][j]; !d.IsNull() {
		return d.Float()
	}
	return math.NaN()
}

type libTarget struct{ db *rfview.DB }

func (t libTarget) do(ctx context.Context, _ int, sql string, _ bool) (result, error) {
	res, err := t.db.ExecContext(ctx, sql)
	if err != nil {
		return result{}, err
	}
	return result{rows: engineRows(res.Rows), affected: res.Affected, derived: res.Derivation != nil, cacheHit: res.CacheHit}, nil
}

func (t libTarget) counters() (counters, error) { return engineCounters(t.db), nil }

func (t libTarget) close() {
	t.db.Engine().Close() // only removes scratch files; nothing to report at the end of a run
}

func engineCounters(db *rfview.DB) counters {
	e := db.Engine()
	pc, st, sp, tx := e.PlanCacheStats(), e.StorageStats(), e.SpillStats(), e.TxnStats()
	return counters{
		"cache_hits": float64(pc.Hits), "cache_misses": float64(pc.Misses), "cache_invalidations": float64(pc.Invalidations),
		"pool_hits": float64(st.Hits), "pool_misses": float64(st.Misses),
		"evictions": float64(st.Evictions), "writebacks": float64(st.Writebacks),
		"spill_runs": float64(sp.Runs.Load()), "spill_bytes": float64(sp.RunBytes.Load()),
		"commits": float64(tx.Commits), "conflicts": float64(tx.ConflictAborts),
		"deltas_applied": float64(e.Views.Stats().DeltaApplied.Load()),
	}
}

// ---- served target --------------------------------------------------------

type wireRows [][]any

func (r wireRows) len() int { return len(r) }
func (r wireRows) at(i, j int) float64 {
	if f, ok := r[i][j].(float64); ok {
		return f
	}
	return math.NaN()
}

// child is a running rfserverd.
type child struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
}

// buildServer compiles cmd/rfserverd from the checkout's source into the
// benchmark's output directory; the go command's cache makes a repeat cheap.
func buildServer(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "rfserverd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rfserverd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building rfserverd: %v\n%s", err, out)
	}
	return bin, nil
}

// startServer starts rfserverd on a free loopback port and waits for its
// ready line. Cancelling ctx (an interrupted harness) kills the child.
func startServer(ctx context.Context, bin, logPath string, args ...string) (*child, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{cmd: cmd, log: logf}
	ready := make(chan string, 1)
	go func() {
		defer close(ready)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "rfserverd listening on "); ok {
				ready <- a
				break
			}
		}
		for sc.Scan() { // drain, so the child never blocks on a full pipe
		}
	}()
	select {
	case a, ok := <-ready:
		if !ok {
			c.kill()
			return nil, fmt.Errorf("rfserverd exited before listening; see %s", logPath)
		}
		c.addr = a
		return c, nil
	case <-time.After(30 * time.Second):
		c.kill()
		return nil, errors.New("rfserverd not listening after 30s")
	}
}

// kill sends SIGKILL and waits: the crash of the durability check and the
// last resort of every shutdown.
func (c *child) kill() float64 {
	_ = c.cmd.Process.Kill() // already exited is fine
	_ = c.cmd.Wait()         // the exit status of a killed child says nothing
	c.log.Close()
	return c.peakRSS()
}

// peakRSS is the ended child's peak resident set in MiB.
func (c *child) peakRSS() float64 {
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// stop asks for a graceful shutdown and waits for the process to end,
// killing it if it does not drain in time. It returns the child's peak
// resident set in MiB.
func (c *child) stop() float64 {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
	c.log.Close()
	return c.peakRSS()
}

type servedTarget struct {
	srv     *child
	conns   []*client.Client
	peakRSS float64
}

func dialAll(addr string, n int) ([]*client.Client, error) {
	var conns []*client.Client
	for i := 0; i < n; i++ {
		c, err := client.DialTimeout(addr, 5*time.Second)
		if err != nil {
			for _, o := range conns {
				o.Close()
			}
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func (t *servedTarget) do(ctx context.Context, conn int, sql string, write bool) (result, error) {
	var res *client.Result
	var err error
	if write {
		res, err = t.conns[conn].ExecContext(ctx, sql)
	} else {
		res, err = t.conns[conn].QueryContext(ctx, sql)
	}
	if err != nil {
		return result{}, err
	}
	return result{rows: wireRows(res.Rows), affected: res.Affected, derived: res.Rewritten != ""}, nil
}

func (t *servedTarget) counters() (counters, error) {
	st, err := t.conns[0].Stats()
	if err != nil {
		return nil, err
	}
	text, err := t.conns[0].Metrics()
	if err != nil {
		return nil, err
	}
	return counters{
		"cache_hits": float64(st.PlanCache.Hits), "cache_misses": float64(st.PlanCache.Misses), "cache_invalidations": float64(st.PlanCache.Invalidations),
		"pool_hits": float64(st.BufferPool.Hits), "pool_misses": float64(st.BufferPool.Misses),
		"evictions": float64(st.BufferPool.Evictions), "writebacks": float64(st.BufferPool.Writebacks),
		"spill_runs": float64(st.Spill.Runs), "spill_bytes": float64(st.Spill.RunBytes),
		"commits": float64(st.Txn.Commits), "conflicts": float64(st.Txn.ConflictAborts),
		"deltas_applied": float64(st.Maintenance.DeltaApplied),
		"checkpoints":    promValue(text, "rfview_wal_checkpoints_total"),
	}, nil
}

func (t *servedTarget) closeConns() {
	for _, c := range t.conns {
		c.Close()
	}
	t.conns = nil
}

func (t *servedTarget) close() {
	t.closeConns()
	if t.srv != nil {
		t.peakRSS = math.Max(t.peakRSS, t.srv.stop())
		t.srv = nil
	}
}

// promValue reads one unlabelled sample from a Prometheus text exposition.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64) // absent or malformed reads 0
			return v
		}
	}
	return 0
}

// selfPeakRSS is this process's peak resident set in MiB: the engine of a
// library workload plus the harness.
func selfPeakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
