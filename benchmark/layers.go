package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rfview"
	"rfview/internal/exec"
	"rfview/internal/plan"
	"rfview/internal/server"
	"rfview/internal/spill"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
	"rfview/internal/wal"
)

// traceStatements is how many statements of a workload's stream a traced run
// records (and as many again with spans off), unless half the run time ends
// first.
const traceStatements = 200

// runTraced is the per-layer run: one connection, spans recorded from the
// harness around every call into a layer, written out when the run ends.
//
// Pass A runs statements untraced and pass B the next ones traced; the
// difference of their median times is the tracing overhead. Pass C takes pass B's
// reads apart on an engine in this process (the workload's own engine, or
// for a served workload a twin built from the same set-up script): parse,
// rewrite, plan, execute, encode, each called by hand through the layer's
// public function, next to the real ExecContext of the same statement.
func runTraced(ctx context.Context, cfg config, def *workloadDef) (*report, error) {
	in, err := setup(ctx, cfg, def)
	if err != nil {
		return nil, err
	}
	defer in.close()
	rep := newReport(def)
	for _, m := range perLayer {
		rep.set(m.Name, 0, 0, "") // a layer this workload does not exercise reads 0
	}
	tr := newTracer()

	local, isTwin := (*rfview.DB)(nil), false
	if lt, ok := in.tgt.(libTarget); ok {
		local = lt.db
	} else {
		local, isTwin = rfview.Open(rfview.DefaultOptions()), true
		defer local.Engine().Close()
		if in.loadSecs, in.viewSecs, err = runScript(ctx, local, in.script); err != nil {
			return nil, err
		}
	}
	c0, err := in.tgt.counters()
	if err != nil {
		return nil, err
	}

	// Passes A and B share one loop: blocks of one statement cycle, spans
	// off and on in turn, so that both see the same statement mix and the
	// same drift. One cycle runs first so that neither pays a cold start.
	type traced struct {
		st     stmt
		execNs int64 // real ExecContext on the local engine
		wireNs int64 // client round trip, served only
		hit    bool
	}
	var done []traced
	var plainUs, tracedUs []float64
	statement := func(record bool) {
		st := in.streams[0].next()
		t := traced{st: st}
		sh := (*seqShadow)(nil)
		if in.tx == nil {
			sh = in.seqs[st.table]
		}
		if st.write {
			sh.started[st.pos-1].Add(1)
		}
		var res result
		var err error
		t0 := time.Now()
		if isTwin {
			id := 0
			if record {
				id = tr.begin("client.roundtrip", 0, st.idx)
			}
			res, err = in.tgt.do(ctx, 0, st.sql, st.write)
			if record {
				t.wireNs = tr.end(id)
			}
		}
		if err == nil {
			id := 0
			if record {
				id = tr.begin("engine.exec", 0, st.idx)
			}
			var lres result
			lres, err = libTarget{local}.do(ctx, 0, st.sql, st.write)
			if record {
				t.execNs = tr.end(id)
				tr.count(id, "rows", float64(rowCount(lres)))
			}
			t.hit = lres.cacheHit
			if !isTwin {
				res = lres
			}
		}
		us := float64(time.Since(t0)) / 1e3
		rep.Attempted++
		switch {
		case err != nil:
			rep.Failed++
			rep.addErrs([]error{fmt.Errorf("%.80q: %w", st.sql, err)})
			if st.write {
				sh.started[st.pos-1].Add(-1)
			}
			return
		case st.write:
			sh.acked[st.pos-1].Add(1)
		default:
			if err := in.checkRead(st, res, nil, nil); err != nil {
				rep.Failed++
				rep.addErrs([]error{fmt.Errorf("wrong answer to %.80q: %w", st.sql, err)})
			}
		}
		if record {
			done = append(done, t)
			tracedUs = append(tracedUs, us)
		} else {
			plainUs = append(plainUs, us)
		}
	}
	cycle := in.streams[0].cycle()
	for i := 0; i < cycle; i++ {
		statement(false)
	}
	plainUs = plainUs[:0]
	for start, n := time.Now(), 0; n < 2*traceStatements && time.Since(start) < cfg.measure/2; n++ {
		statement((n/cycle)%2 == 1)
	}
	nA, nB := len(plainUs), len(tracedUs)
	rep.set("trace.overhead_pct", 100*(median(tracedUs)/median(plainUs)-1), nB,
		"median statement time with spans on against spans off, in alternating blocks; oracle excluded")

	c1, err := in.tgt.counters()
	if err != nil {
		return nil, err
	}
	for k, v := range layerCounters(c1.minus(c0)) {
		rep.set(k, v, nA+nB, "")
	}
	if isTwin {
		var ping []float64
		for i := 0; i < traceStatements; i++ {
			id := tr.begin("client.ping", 0, 0)
			err := in.served().conns[0].Ping()
			ping = append(ping, float64(tr.end(id))/1e3)
			if err != nil {
				return nil, fmt.Errorf("ping: %w", err)
			}
		}
		rep.set("server.ping_us", median(ping), len(ping), "")
	}

	// Pass C: hand-stepped stages of pass B's reads, until half the run time
	// is spent.
	st := stepper{ctx: ctx, tr: tr, db: local, encode: isTwin, in: in}
	if budget := local.Engine().Opts.MemoryBudgetBytes; budget > 0 {
		env := spill.NewEnv(filepath.Join(in.workDir, "spill-stepped"))
		defer env.Close()
		st.spill = &spill.Config{Budget: local.Engine().SpillBudget(), Env: env, Stats: local.Engine().SpillStats()}
	}
	var wire, hitUs, unattributed []float64
	startC := time.Now()
	for _, t := range done {
		if t.st.write {
			continue
		}
		if isTwin {
			wire = append(wire, float64(t.wireNs-t.execNs)/1e3)
		}
		if t.hit {
			hitUs = append(hitUs, float64(t.execNs)/1e3)
		}
		if time.Since(startC) > cfg.measure/2 {
			continue
		}
		stagesNs, err := st.step(t.st, t.st.idx)
		if err != nil {
			rep.Failed++
			rep.addErrs([]error{fmt.Errorf("stepping %.80q: %w", t.st.sql, err)})
			continue
		}
		coldNs := t.execNs
		if t.hit {
			// The real pipeline short-circuited; time it cold so that the
			// stages are compared with the work they decompose.
			local.Engine().InvalidatePlans()
			id := tr.begin("engine.exec_cold", 0, t.st.idx)
			_, err := local.ExecContext(ctx, t.st.sql)
			coldNs = tr.end(id)
			if err != nil {
				return nil, err
			}
		}
		unattributed = append(unattributed, float64(coldNs-stagesNs)/1e3)
	}
	rep.set("server.wire_us", median(wire), len(wire), "median of round trip minus in-process ExecContext, per statement")
	rep.set("qcache.hit_us", median(hitUs), len(hitUs), "")
	rep.set("trace.unattributed_us", median(unattributed), len(unattributed), "real cold ExecContext minus the hand-stepped stages, median")
	layers := summarize(tr.spans)
	for name, metric := range map[string]string{
		"sqlparser.parse": "sqlparser.parse_us", "rewrite.derive": "rewrite.derive_us", "plan.plan": "plan.plan_us",
		"exec.run": "exec.run_us", "server.encode": "server.encode_us", "client.decode": "client.decode_us", "core.floor": "core.floor_us",
	} {
		for _, l := range layers {
			if l.Name == name {
				rep.set(metric, l.P50Us, l.Count, "")
			}
		}
	}
	rep.set("exec.allocs_per_row", ratio(st.mallocs, st.rowsOut), int(st.rowsOut), "runtime.MemStats.Mallocs over rows out of CollectCtx")
	rep.set("storage.load_rows_per_s", ratio(float64(in.loadRows), in.loadSecs), in.loadRows, "bulk load at set-up, in process")
	rep.set("mview.create_s", in.viewSecs, 0, "")

	if def.Name == "serve_mixed" {
		if err := writeLayers(ctx, in, local, rep); err != nil {
			return nil, err
		}
	}
	rep.Layers = layers
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+def.Name+".json")); err != nil {
		return nil, err
	}
	return rep, nil
}

func rowCount(r result) int {
	if r.rows == nil {
		return 0
	}
	return r.rows.len()
}

// stepper calls the stages of a read by hand, one span each.
type stepper struct {
	ctx    context.Context
	tr     *tracer
	db     *rfview.DB
	in     *instance
	spill  *spill.Config
	encode bool
	// mallocs and rowsOut accumulate over every exec.run span.
	mallocs, rowsOut float64
}

// step runs one statement's stages under a "stepped" span and returns the
// time the four engine stages took (encode is the server's, not ExecContext's).
func (s *stepper) step(st stmt, req int) (int64, error) {
	root := s.tr.begin("stepped", 0, req)
	total, out, err := s.stages(st, root, req)
	s.tr.end(root)
	if err != nil {
		return 0, err
	}
	if err := s.in.checkRead(st, result{rows: engineRows(out)}, nil, nil); err != nil {
		return 0, fmt.Errorf("stepped stages gave a wrong answer: %w", err)
	}
	s.floor(st, req)
	return total, nil
}

func (s *stepper) stages(st stmt, root, req int) (int64, []sqltypes.Row, error) {
	eng := s.db.Engine()
	id := s.tr.begin("sqlparser.parse", root, req)
	parsed, err := sqlparser.Parse(st.sql)
	total := s.tr.end(id)
	if err != nil {
		return 0, nil, err
	}
	sel, ok := parsed.(sqlparser.SelectStatement)
	if !ok {
		return 0, nil, fmt.Errorf("not a select: %T", parsed)
	}

	id = s.tr.begin("rewrite.derive", root, req)
	rewritten, deriv, err := eng.RewriteSelect(sel)
	total += s.tr.end(id)
	if err != nil {
		return 0, nil, err
	}
	if deriv != nil {
		s.tr.count(id, "derived", 1)
	}

	popts := plan.DefaultOptions()
	popts.Ctx, popts.Spill = s.ctx, s.spill
	id = s.tr.begin("plan.plan", root, req)
	op, err := plan.New(eng.Cat, popts).PlanSelect(rewritten)
	total += s.tr.end(id)
	if err != nil {
		return 0, nil, err
	}

	var m0, m1 runtime.MemStats
	sp0, st0 := eng.SpillStats().Runs.Load(), eng.StorageStats()
	runtime.ReadMemStats(&m0)
	id = s.tr.begin("exec.run", root, req)
	out, err := exec.CollectCtx(s.ctx, op)
	total += s.tr.end(id)
	if err != nil {
		return 0, nil, err
	}
	runtime.ReadMemStats(&m1)
	st1 := eng.StorageStats()
	s.mallocs += float64(m1.Mallocs - m0.Mallocs)
	s.rowsOut += float64(len(out))
	s.tr.count(id, "rows", float64(len(out)))
	s.tr.count(id, "mallocs", float64(m1.Mallocs-m0.Mallocs))
	s.tr.count(id, "spill_runs", float64(eng.SpillStats().Runs.Load()-sp0))
	s.tr.count(id, "pool_misses", float64(st1.Misses-st0.Misses))
	s.tr.count(id, "evictions", float64(st1.Evictions-st0.Evictions))
	if s.encode {
		resp := server.Response{ID: uint64(req), OK: true, Columns: []string{"pos", "w"}, Rows: rowsToJSON(out), Affected: len(out)}
		id = s.tr.begin("server.encode", root, req)
		wire, err := json.Marshal(&resp)
		s.tr.end(id)
		if err != nil {
			return 0, nil, err
		}
		var back server.Response
		id = s.tr.begin("client.decode", root, req)
		err = json.Unmarshal(wire, &back)
		s.tr.end(id)
		if err != nil {
			return 0, nil, err
		}
	}
	return total, out, nil
}

// rowsToJSON boxes datums the way the server does before it encodes them.
func rowsToJSON(in []sqltypes.Row) [][]any {
	out := make([][]any, len(in))
	for i, r := range in {
		jr := make([]any, len(r))
		for j, d := range r {
			switch d.Typ() {
			case sqltypes.Int:
				jr[j] = d.Int()
			case sqltypes.Float:
				jr[j] = d.Float()
			}
		}
		out[i] = jr
	}
	return out
}

// floor times the sequence algebra alone on the statement's raw values: the
// lower bound that derive + plan + exec are compared against. A derivable
// sequence statement is SeqDerive from the view's sequence; anything else is
// the pipelined SeqCompute per partition.
func (s *stepper) floor(st stmt, req int) {
	type job struct {
		raw []float64
		src *rfview.Sequence
		w   winSpec
	}
	var jobs []job
	if s.in.tx == nil {
		w, raw := st.wins[0], s.in.seqs[st.table].lower()
		j := job{raw: raw, w: w}
		view := viewSum
		if w.agg == rfview.Max {
			view = viewMax
		}
		if src, err := rfview.SeqCompute(raw, view.win, view.agg); err == nil && !w.win.Cumulative {
			j.src = src
		}
		jobs = append(jobs, j)
	} else {
		for _, w := range st.wins {
			parts := map[int][]float64{}
			for _, r := range s.in.tx {
				if r.amount >= st.minAmount {
					k := r.cust
					if w.part == partLoc {
						k = r.loc
					}
					parts[k] = append(parts[k], float64(r.amount))
				}
			}
			for _, raw := range parts {
				jobs = append(jobs, job{raw: raw, w: w})
			}
		}
	}
	id := s.tr.begin("core.floor", 0, req)
	for _, j := range jobs {
		if j.src != nil {
			if _, err := rfview.SeqDerive(j.src, j.w.win); err == nil {
				continue
			}
		}
		_, _ = rfview.SeqCompute(j.raw, j.w.win, j.w.agg) // the windows are valid: the oracle computed them already
	}
	s.tr.end(id)
}

// writeLayers splits the cost of a point UPDATE by running the same updates
// on three engines in this process: the twin (views, no log), a plain engine
// (no views, no log) and a logged engine (no views, WAL with fsync off, as
// the served run). Differences of medians give each layer's share.
func writeLayers(ctx context.Context, in *instance, twin *rfview.DB, rep *report) error {
	var noViews []string
	for _, s := range in.script {
		if !strings.HasPrefix(s, "CREATE MATERIALIZED VIEW") {
			noViews = append(noViews, s)
		}
	}
	plain := rfview.Open(rfview.DefaultOptions())
	defer plain.Engine().Close()
	if _, _, err := runScript(ctx, plain, noViews); err != nil {
		return err
	}
	walDir := filepath.Join(in.workDir, "wal-twin")
	mgr, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncOff}, rfview.DefaultOptions())
	if err != nil {
		return err
	}
	defer mgr.Close()
	logged := mgr.Engine()
	defer logged.Close()
	for _, s := range noViews {
		if _, err := logged.ExecContext(ctx, s); err != nil {
			return err
		}
	}
	before, err := dirSize(walDir)
	if err != nil {
		return err
	}
	updates := func(exec func(string) error) (float64, error) {
		var us []float64
		for i := 0; i < traceStatements; i++ {
			pos := 1 + (i*37)%seqRows
			t0 := time.Now()
			if err := exec(fmt.Sprintf("UPDATE seq_a SET val = val + 1 WHERE pos = %d", pos)); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(t0))/1e3)
		}
		return median(us), nil
	}
	withViews, err := updates(func(sql string) error { _, err := twin.ExecContext(ctx, sql); return err })
	if err != nil {
		return err
	}
	base, err := updates(func(sql string) error { _, err := plain.ExecContext(ctx, sql); return err })
	if err != nil {
		return err
	}
	withLog, err := updates(func(sql string) error { _, err := logged.ExecContext(ctx, sql); return err })
	if err != nil {
		return err
	}
	after, err := dirSize(walDir)
	if err != nil {
		return err
	}
	rep.set("txn.commit_us", base, traceStatements, "auto-commit UPDATE, no views, no log")
	rep.set("mview.maint_us", withViews-base, traceStatements, "UPDATE with two eager views minus without")
	rep.set("wal.append_us", withLog-base, traceStatements, "UPDATE with the log (fsync off) minus without")
	rep.set("wal.bytes_per_write", float64(after-before)/traceStatements, traceStatements, "")

	// Recovery: a copy of the data directory taken now holds a log tail that
	// no checkpoint has absorbed, as after a crash.
	crashDir := filepath.Join(in.workDir, "wal-crash")
	if err := copyDir(crashDir, walDir); err != nil {
		return err
	}
	t0 := time.Now()
	rec, err := wal.Open(wal.Options{Dir: crashDir, Sync: wal.SyncOff}, rfview.DefaultOptions())
	if err != nil {
		return err
	}
	recoverS := time.Since(t0).Seconds()
	defer rec.Close()
	defer rec.Engine().Close()
	rep.set("wal.recover_s", recoverS, 1, fmt.Sprintf("reopen of a copied data dir, %d log records replayed", rec.Recovery().RecordsReplayed))
	want, err := plain.ExecContext(ctx, "SELECT pos, val FROM seq_a")
	if err != nil {
		return err
	}
	got, err := rec.Engine().ExecContext(ctx, "SELECT pos, val FROM seq_a")
	if err != nil {
		return err
	}
	rep.Attempted++
	state := make([]float64, seqRows)
	for i := range want.Rows {
		state[int(want.Rows[i][0].Int())-1] = want.Rows[i][1].Float()
	}
	if err := checkSeqTable(state, engineRows(got.Rows)); err != nil {
		rep.Failed++
		rep.addErrs([]error{fmt.Errorf("recovered log twin differs from the unlogged one: %w", err)})
	}
	return nil
}

func copyDir(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
