package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rfview"
)

// config is one invocation's settings; the flags fill it, tests shorten it.
type config struct {
	outDir, serverBin string
	seed              int64
	measure           time.Duration
	warmup            time.Duration
	// Set-up is repeated until setupBudget is spent, at least minSetups and
	// at most maxSetups times; setup_s is the median.
	setupBudget          time.Duration
	minSetups, maxSetups int
}

func defaultConfig(root string, seed int64, seconds float64) config {
	measure := time.Duration(seconds * float64(time.Second))
	return config{
		outDir: filepath.Join(root, "benchmark", "out"), seed: seed,
		measure: measure, warmup: measure * 3 / 20, // the issue's 3 s per 20 s
		setupBudget: 500 * time.Millisecond, minSetups: 5, maxSetups: 51,
	}
}

// mixedServerFlags of serve_mixed: durable, with the flush policy stated (off:
// the latency is the sandbox's, not a device's) and checkpoints frequent
// enough that several complete inside a run at this workload's write rate.
var mixedServerFlags = []string{"-fsync", "off", "-checkpoint-every", "32"}

// instance is one set-up of a workload: the program under test, loaded, plus
// the harness's own copy of the data.
type instance struct {
	def     *workloadDef
	tgt     target
	streams []stream // one per connection
	script  []string // the set-up statements, for in-process twins

	tables []seqTable   // sequence workloads
	seqs   []*seqShadow // their shadow state
	tx     []txRow      // credit-card workloads

	loadRows           int
	loadSecs, viewSecs float64
	heapBytes          float64 // library workloads: heap size after the load
	dataDir            string  // serve_mixed
	workDir            string
	closed             bool
}

func (in *instance) served() *servedTarget {
	t, _ := in.tgt.(*servedTarget)
	return t
}

func (in *instance) close() {
	if in.tgt != nil && !in.closed {
		in.closed = true
		in.tgt.close()
	}
}

// checkRead checks one read against the oracle. lo and hi are the shadow
// states bracketing a sequence read; nil means "read them now".
func (in *instance) checkRead(st stmt, res result, lo, hi []float64) error {
	if in.tx != nil {
		return checkTxQuery(st, in.tx, res.rows)
	}
	if lo == nil {
		lo = in.seqs[st.table].lower()
	}
	if hi == nil {
		hi = in.seqs[st.table].upper()
	}
	return checkSeqQuery(st.wins[0], lo, hi, res.rows)
}

// runScript executes set-up statements in process, timing the bulk load and
// the view creation apart.
func runScript(ctx context.Context, db *rfview.DB, script []string) (loadSecs, viewSecs float64, err error) {
	for _, s := range script {
		t0 := time.Now()
		if _, err := db.ExecContext(ctx, s); err != nil {
			return 0, 0, fmt.Errorf("set-up statement %.60q: %w", s, err)
		}
		d := time.Since(t0).Seconds()
		switch {
		case strings.HasPrefix(s, "INSERT"):
			loadSecs += d
		case strings.HasPrefix(s, "CREATE MATERIALIZED VIEW"):
			viewSecs += d
		}
	}
	return loadSecs, viewSecs, nil
}

// setup builds the data from the seed, starts and loads the program, and
// returns once the first answer checked correct.
func setup(ctx context.Context, cfg config, def *workloadDef) (*instance, error) {
	in := &instance{def: def, workDir: filepath.Join(cfg.outDir, def.Name)}
	if err := os.RemoveAll(in.workDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(in.workDir, 0o755); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var err error
	switch def.Name {
	case "serve_hot", "serve_mixed":
		err = in.setupServed(ctx, cfg, rng)
	case "derive_uncached":
		in.addSeqTables(genSeqTable(rng, "seq_d", deriveRows))
		in.streams = []stream{newDeriveStream(rng, "seq_d")}
		err = in.openLibrary(ctx, rfview.DefaultOptions())
	case "scan_window", "scan_window_oocore":
		in.tx = genTransactions(rng)
		in.script = txScript(rng, in.tx)
		in.loadRows = len(in.tx)
		in.streams = []stream{&scanStream{rng: rng}}
		opts := rfview.DefaultOptions()
		if def.Name == "scan_window_oocore" {
			opts.MemoryBudgetBytes = oocoreBudget
			opts.SpillDir = filepath.Join(in.workDir, "spill")
		}
		err = in.openLibrary(ctx, opts)
	default:
		err = fmt.Errorf("unknown workload %q", def.Name)
	}
	if err == nil {
		err = in.firstAnswer(ctx)
	}
	if err != nil {
		in.close()
		return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
	}
	return in, nil
}

func (in *instance) addSeqTables(tables ...seqTable) {
	for _, t := range tables {
		in.tables = append(in.tables, t)
		in.seqs = append(in.seqs, newSeqShadow(t))
		in.script = append(in.script, seqScript(t)...)
		in.loadRows += len(t.vals)
	}
}

func (in *instance) openLibrary(ctx context.Context, opts rfview.Options) error {
	db := rfview.Open(opts)
	in.tgt = libTarget{db}
	var err error
	in.loadSecs, in.viewSecs, err = runScript(ctx, db, in.script)
	// Pages are born resident, so the heap is what is still cached plus what
	// the load already evicted.
	st := db.Engine().StorageStats()
	in.heapBytes = float64((st.PagesCached + st.Evictions) * int64(st.PageSize))
	return err
}

func (in *instance) setupServed(ctx context.Context, cfg config, rng *rand.Rand) error {
	in.addSeqTables(genSeqTable(rng, "seq_a", seqRows), genSeqTable(rng, "seq_b", seqRows))
	nConns := runtime.NumCPU()
	dash := dashboard(in.tables)
	for c := 0; c < nConns; c++ {
		in.streams = append(in.streams, &dashStream{
			dash: dash, rng: rand.New(rand.NewSource(cfg.seed + int64(c) + 1)),
			writes: in.def.Name == "serve_mixed", client: c, nClients: nConns,
		})
	}
	initPath := filepath.Join(in.workDir, "init.sql")
	if err := os.WriteFile(initPath, []byte(strings.Join(in.script, ";\n")+";\n"), 0o644); err != nil {
		return err
	}
	args := []string{"-init", initPath}
	if in.def.Name == "serve_mixed" {
		in.dataDir = filepath.Join(in.workDir, "data")
		args = append(append(args, "-data-dir", in.dataDir), mixedServerFlags...)
	}
	return in.startServed(ctx, cfg, args)
}

func (in *instance) startServed(ctx context.Context, cfg config, args []string) error {
	srv, err := startServer(ctx, cfg.serverBin, filepath.Join(in.workDir, "server.log"), args...)
	if err != nil {
		return err
	}
	t := in.served()
	if t == nil {
		t = &servedTarget{}
		in.tgt = t
	}
	t.srv = srv
	t.conns, err = dialAll(srv.addr, len(in.streams))
	return err
}

// firstAnswer runs the stream's next read and checks it.
func (in *instance) firstAnswer(ctx context.Context) error {
	st := in.streams[0].next()
	for st.write {
		st = in.streams[0].next()
	}
	res, err := in.tgt.do(ctx, 0, st.sql, false)
	if err != nil {
		return err
	}
	return in.checkRead(st, res, nil, nil)
}

// restartAfterKill is the durability check of serve_mixed: SIGKILL the
// server, start it again on the same data directory and time the way to the
// first correct answer.
func (in *instance) restartAfterKill(ctx context.Context, cfg config) (float64, error) {
	t := in.served()
	t.closeConns()
	t.peakRSS = t.srv.kill()
	t.srv = nil
	t0 := time.Now()
	if err := in.startServed(ctx, cfg, append([]string{"-data-dir", in.dataDir}, mixedServerFlags...)); err != nil {
		return 0, err
	}
	if err := in.firstAnswer(ctx); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// checkState compares every base table and every view of a sequence
// workload with the shadow state; it needs a quiet system.
func (in *instance) checkState(ctx context.Context) (attempted int, errs []error) {
	for ti, t := range in.tables {
		state := in.seqs[ti].lower()
		check := func(name string, f func(rows) error) {
			attempted++
			res, err := in.tgt.do(ctx, 0, "SELECT pos, val FROM "+name, false)
			if err == nil {
				err = f(res.rows)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("final state of %s: %w", name, err))
			}
		}
		check(t.name, func(r rows) error { return checkSeqTable(state, r) })
		for _, v := range seqViews(t.name) {
			check(v.name, func(r rows) error { return checkSeqView(v.spec, state, r) })
		}
	}
	return attempted, errs
}

// ---- the measured loop ----------------------------------------------------

// sampleEvery is the share of measured statements the oracle checks: those
// whose ordinal is 1 modulo it (0 would always be a write on serve_mixed).
const sampleEvery = 50

// clientLog is what one connection's loop records.
type clientLog struct {
	readNs, writeNs   []int64
	slices            sliceWork
	attempted, failed int
	// reads counts answered reads; underived of them came from no view and
	// hits of them from the plan cache (both visible in process only).
	reads, underived, hits int
	errs                   []error
	deferred               []deferredCheck
	checksums              map[int]uint64
}

type deferredCheck struct {
	st     stmt
	res    result
	lo, hi []float64
}

func (l *clientLog) fail(err error) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err)
	}
}

// drive runs one connection's closed loop for the window. With a single
// connection the oracle runs inline and its time is taken off the clock;
// with several it runs after the window, on results kept aside. checkAll is
// the warm-up: every read is checked, nothing is recorded as a latency.
func (in *instance) drive(ctx context.Context, conn int, window time.Duration, checkAll bool, log *clientLog) {
	inline := checkAll || len(in.streams) == 1
	start := time.Now()
	var paused time.Duration
	for {
		if time.Since(start)-paused >= window || ctx.Err() != nil {
			return
		}
		st := in.streams[conn].next()
		verify := !st.write && (checkAll || st.idx%sampleEvery == 1)
		var lo, hi []float64
		var sh *seqShadow
		if in.tx == nil {
			sh = in.seqs[st.table]
		}
		if verify && sh != nil {
			lo = sh.lower()
		}
		if st.write {
			sh.started[st.pos-1].Add(1)
		}
		t0 := time.Now()
		res, err := in.tgt.do(ctx, conn, st.sql, st.write)
		t1 := time.Now()
		log.attempted++
		switch {
		case err != nil:
			log.fail(fmt.Errorf("%.80q: %w", st.sql, err))
			if st.write {
				sh.started[st.pos-1].Add(-1) // refused or rolled back: never visible
			}
			continue
		case st.write && res.affected != 1:
			log.fail(fmt.Errorf("%q affected %d rows", st.sql, res.affected))
			sh.started[st.pos-1].Add(-1)
			continue
		case st.write:
			sh.acked[st.pos-1].Add(1)
		}
		if !st.write {
			log.reads++
			if !res.derived {
				log.underived++
			}
			if res.cacheHit {
				log.hits++
			}
		}
		if !checkAll {
			log.slices.add(t0.Sub(start)-paused, t1.Sub(start)-paused, window)
			if t1.Sub(start)-paused < window {
				if st.write {
					log.writeNs = append(log.writeNs, int64(t1.Sub(t0)))
				} else {
					log.readNs = append(log.readNs, int64(t1.Sub(t0)))
				}
			}
		}
		if !verify {
			continue
		}
		if sh != nil {
			hi = sh.upper()
		}
		if !inline {
			log.deferred = append(log.deferred, deferredCheck{st, res, lo, hi})
			continue
		}
		if err := in.checkRead(st, res, lo, hi); err != nil {
			log.fail(fmt.Errorf("wrong answer to %.80q: %w", st.sql, err))
		}
		if in.tx != nil {
			log.checksums[st.idx] = checksum(res.rows, 1+len(st.wins))
		}
		paused += time.Since(t1)
	}
}

// driveAll runs every connection's loop at once and merges their logs.
func (in *instance) driveAll(ctx context.Context, window time.Duration, checkAll bool) *clientLog {
	logs := make([]*clientLog, len(in.streams))
	done := make(chan struct{})
	for c := range in.streams {
		logs[c] = &clientLog{checksums: map[int]uint64{}}
		go func() {
			in.drive(ctx, c, window, checkAll, logs[c])
			done <- struct{}{}
		}()
	}
	for range in.streams {
		<-done
	}
	all := logs[0]
	for _, l := range logs[1:] {
		all.readNs = append(all.readNs, l.readNs...)
		all.writeNs = append(all.writeNs, l.writeNs...)
		for i := range all.slices {
			all.slices[i] += l.slices[i]
		}
		all.attempted += l.attempted
		all.failed += l.failed
		all.reads += l.reads
		all.underived += l.underived
		all.hits += l.hits
		all.errs = append(all.errs, l.errs...)
		all.deferred = append(all.deferred, l.deferred...)
	}
	for _, d := range all.deferred {
		if err := in.checkRead(d.st, d.res, d.lo, d.hi); err != nil {
			all.fail(fmt.Errorf("wrong answer to %.80q: %w", d.st.sql, err))
		}
	}
	all.deferred = nil
	return all
}

// ---- one gated run --------------------------------------------------------

// value is one reported number; N is the sample count behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// report is the outcome of one workload run.
type report struct {
	Workload  string           `json:"workload"`
	Why       string           `json:"why"`
	Metrics   map[string]value `json:"metrics"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Invalid   []string         `json:"invalid,omitempty"`
	Errors    []string         `json:"errors,omitempty"`
	Layers    []layerSummary   `json:"layers,omitempty"`
	checksums map[int]uint64
}

func (r *report) set(name string, v float64, n int, note string) {
	unit := ""
	for _, m := range allMetrics() {
		if m.Name == name {
			unit = m.Unit
		}
	}
	r.Metrics[name] = value{Value: v, Unit: unit, N: n, Note: note}
}

func (r *report) addErrs(errs []error) {
	for _, e := range errs {
		if len(r.Errors) < 10 {
			r.Errors = append(r.Errors, e.Error())
		}
	}
}

func newReport(def *workloadDef) *report {
	return &report{Workload: def.Name, Why: def.Why, Metrics: map[string]value{}}
}

// repeatSetup sets the workload up until the budget is spent and returns the
// last instance with every set-up time.
func repeatSetup(ctx context.Context, cfg config, def *workloadDef) (*instance, []float64, error) {
	var in *instance
	var times []float64
	var spent time.Duration
	for len(times) < cfg.minSetups || (spent < cfg.setupBudget && len(times) < cfg.maxSetups) {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		var err error
		if in, err = setup(ctx, cfg, def); err != nil {
			return nil, nil, err
		}
		spent += time.Since(t0)
		times = append(times, time.Since(t0).Seconds())
	}
	return in, times, nil
}

// runGated measures one workload with tracing off.
func runGated(ctx context.Context, cfg config, def *workloadDef) (*report, error) {
	in, setups, err := repeatSetup(ctx, cfg, def)
	if err != nil {
		return nil, err
	}
	defer in.close()
	rep := newReport(def)
	rep.set("setup_s", median(setups), len(setups), "")

	warm := in.driveAll(ctx, cfg.warmup, true)
	c0, err := in.tgt.counters()
	if err != nil {
		return nil, err
	}
	log := in.driveAll(ctx, cfg.measure, false)
	c1, err := in.tgt.counters()
	if err != nil {
		return nil, err
	}
	delta := c1.minus(c0)
	rep.Attempted = warm.attempted + log.attempted
	rep.Failed = warm.failed + log.failed
	rep.addErrs(append(warm.errs, log.errs...))
	rep.checksums = warm.checksums
	for k, v := range log.checksums {
		rep.checksums[k] = v
	}

	rate, lo, hi := log.slices.rates(cfg.measure)
	done := len(log.readNs) + len(log.writeNs)
	rep.set("ops_per_s", rate, done, fmt.Sprintf("slices min %.1f max %.1f", lo, hi))
	reads, writes := msSorted(log.readNs), msSorted(log.writeNs)
	tailNote := func(n int) string { return fmt.Sprintf("p%v, %d samples beyond", def.tail, beyond(n, def.tail)) }
	rep.set("read_p50_ms", percentile(reads, 50), len(reads), "")
	rep.set("read_tail_ms", percentile(reads, def.tail), len(reads), tailNote(len(reads)))
	if len(writes) > 0 {
		rep.set("write_p50_ms", percentile(writes, 50), len(writes), "")
		rep.set("write_tail_ms", percentile(writes, def.tail), len(writes), tailNote(len(writes)))
	}

	if def.Name == "serve_mixed" {
		// Quiet now: the final state must equal the shadow state, before and
		// after a crash (every acknowledged write present).
		n, errs := in.checkState(ctx)
		rec, err := in.restartAfterKill(ctx, cfg)
		if err != nil {
			errs = append(errs, fmt.Errorf("restart after SIGKILL: %w", err))
		}
		n2, errs2 := in.checkState(ctx)
		rep.Attempted += n + n2 + 1
		rep.Failed += len(errs) + len(errs2)
		rep.addErrs(append(errs, errs2...))
		rep.set("recover_s", rec, 1, "SIGKILL, restart, first correct answer")
	}
	rep.set("fail_ratio", float64(rep.Failed)/float64(rep.Attempted), rep.Attempted, "")

	in.close()
	if t := in.served(); t != nil {
		rep.set("peak_rss_mib", t.peakRSS, 1, "rfserverd")
	} else {
		rep.set("peak_rss_mib", selfPeakRSS(), 1, "engine and harness")
	}
	rep.Invalid = guards(def.Name, delta, in.heapBytes, log)
	for k, v := range layerCounters(delta) {
		rep.set(k, v, 0, "counter delta over the measured window")
	}
	return rep, nil
}

// hitRatio is the share of cache lookups that answered: a lookup that found
// an entry a write had invalidated counts as found in the cache's own
// counters, so invalidations are taken off.
func hitRatio(d counters) float64 {
	lookups := d["cache_hits"] + d["cache_misses"]
	if lookups == 0 {
		return 0
	}
	return (d["cache_hits"] - d["cache_invalidations"]) / lookups
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounters are the per-layer metrics that are plain counter deltas;
// they cost nothing to read, so untraced runs print them too.
func layerCounters(d counters) map[string]float64 {
	return map[string]float64{
		"qcache.hit_ratio":       hitRatio(d),
		"storage.pool_hit_ratio": ratio(d["pool_hits"], d["pool_hits"]+d["pool_misses"]),
		"storage.evictions":      d["evictions"],
		"storage.writebacks":     d["writebacks"],
		"spill.runs":             d["spill_runs"],
		"spill.bytes":            d["spill_bytes"],
		"mview.deltas_applied":   d["deltas_applied"],
		"txn.conflict_ratio":     ratio(d["conflicts"], d["commits"]+d["conflicts"]),
	}
}

// guards returns the ways a run failed to exercise what its workload
// claims; a change that silently reroutes a workload must fail loudly.
func guards(name string, d counters, heapBytes float64, log *clientLog) []string {
	var bad []string
	expect := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	switch name {
	case "serve_hot":
		expect(hitRatio(d) >= 0.99, "qcache.hit_ratio %.4f < 0.99", hitRatio(d))
	case "serve_mixed":
		writes := float64(len(log.writeNs))
		cr := ratio(d["conflicts"], d["commits"]+d["conflicts"])
		expect(cr < 0.02, "txn.conflict_ratio %.4f >= 0.02", cr)
		expect(d["checkpoints"] >= 2, "%v checkpoints completed, want >= 2", d["checkpoints"])
		// Only the eight seq_a statements may fall out of the cache per
		// write; more means seq_b statements stopped being cache hits.
		expect(d["cache_invalidations"] <= 8.5*writes, "%.1f cache invalidations per write, want <= 8", ratio(d["cache_invalidations"], writes))
		expect(d["deltas_applied"] > 0, "no view delta applied")
	case "derive_uncached":
		expect(hitRatio(d) <= 0.01, "qcache.hit_ratio %.4f > 0.01", hitRatio(d))
		expect(log.underived == 0, "%d of %d statements not derived from a view", log.underived, log.reads)
	case "scan_window":
		expect(d["spill_runs"] == 0, "spill.runs %v, want 0", d["spill_runs"])
		expect(log.underived == log.reads, "%d statements derived from a view", log.reads-log.underived)
		expect(log.hits == 0, "%d result-cache hits", log.hits)
	case "scan_window_oocore":
		expect(d["evictions"] > 0, "storage.evictions 0")
		expect(d["spill_runs"] > 0, "spill.runs 0")
		expect(heapBytes >= 4*oocoreBudget, "heap %.0f B is less than 4x the %d B budget", heapBytes, oocoreBudget)
	}
	return bad
}
