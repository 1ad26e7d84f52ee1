// Command rfsql is an interactive SQL shell over the rfview engine.
//
// Usage:
//
//	rfsql [-f script.sql] [-no-views]
//
// Statements end with a semicolon; meta commands start with a dot:
//
//	.help            show help
//	.tables          list tables
//	.views           list materialized views
//	.explain on|off  print plans alongside results
//	.analyze on|off  print analyzed plans (per-operator rows/timings) alongside results
//	.metrics         print the engine's Prometheus metrics
//	.quit            exit
//
// Ctrl-C during a running statement cancels it (the statement fails with a
// cancellation error); at the prompt it exits the shell.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"rfview/internal/engine"
	"rfview/internal/sqltypes"
)

func main() {
	script := flag.String("f", "", "execute statements from a file, then exit")
	noViews := flag.Bool("no-views", false, "disable answering queries from materialized sequence views")
	flag.Parse()

	opts := engine.DefaultOptions()
	opts.UseMatViews = !*noViews

	e := engine.New(opts)
	sh := &shell{eng: e, sess: e.NewSession(), out: os.Stdout}

	if *script != "" {
		data, err := os.ReadFile(*script)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rfsql: %v\n", err)
			os.Exit(1)
		}
		if err := sh.runScript(string(data)); err != nil {
			fmt.Fprintf(os.Stderr, "rfsql: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("rfview SQL shell — reporting functions, materialized sequence views.")
	fmt.Println(`Type ".help" for help, ".quit" to exit. Statements end with ";".`)
	sh.repl(bufio.NewReader(os.Stdin))
}

type shell struct {
	eng     *engine.Engine
	sess    *engine.Session // holds the shell's open transaction, if any
	out     io.Writer
	explain bool
	analyze bool
}

func (s *shell) repl(in *bufio.Reader) {
	var buf strings.Builder
	prompt := "rfview> "
	for {
		fmt.Fprint(s.out, prompt)
		line, err := in.ReadString('\n')
		if err != nil {
			fmt.Fprintln(s.out)
			return
		}
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, ".") {
			if s.meta(trimmed) {
				return
			}
			continue
		}
		buf.WriteString(line)
		if strings.Contains(line, ";") {
			stmt := buf.String()
			buf.Reset()
			prompt = "rfview> "
			s.execute(stmt)
		} else if buf.Len() > 0 {
			prompt = "   ...> "
		}
	}
}

// meta handles dot commands; it reports whether the shell should exit.
func (s *shell) meta(cmd string) bool {
	switch {
	case cmd == ".quit" || cmd == ".exit":
		return true
	case cmd == ".help":
		fmt.Fprintln(s.out, `meta commands:
  .tables          list tables
  .views           list materialized views
  .explain on|off  print plans alongside results
  .analyze on|off  print analyzed plans (per-operator rows/timings)
  .metrics         print the engine's Prometheus metrics
  .quit            exit`)
	case cmd == ".tables":
		for _, name := range s.eng.Cat.Tables() {
			if !strings.HasPrefix(name, "__mv_") {
				fmt.Fprintln(s.out, " ", name)
			}
		}
	case cmd == ".views":
		for _, v := range s.eng.Cat.MatViews() {
			kind := "plain"
			if v.Window.Cumulative || v.Window.Preceding != 0 || v.Window.Following != 0 {
				kind = fmt.Sprintf("sequence %s over %s(%s) agg %s", v.Window, v.BaseTable, v.ValColumn, v.Agg)
			}
			fmt.Fprintf(s.out, "  %s — %s\n", v.Name, kind)
		}
	case cmd == ".explain on":
		s.explain = true
	case cmd == ".explain off":
		s.explain = false
	case cmd == ".analyze on":
		s.analyze = true
	case cmd == ".analyze off":
		s.analyze = false
	case cmd == ".metrics":
		fmt.Fprint(s.out, s.eng.Metrics().Expose())
	default:
		fmt.Fprintf(s.out, "unknown meta command %q (try .help)\n", cmd)
	}
	return false
}

func (s *shell) runScript(script string) error {
	// Ctrl-C while the script runs cancels it instead of killing the shell.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	results, err := s.sess.ExecAllContext(ctx, script)
	for _, res := range results {
		s.printResult(res)
	}
	return err
}

func (s *shell) execute(sql string) {
	stmt := sql
	// Ctrl-C while the statement runs cancels it instead of killing the shell.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if s.explain && !strings.HasPrefix(strings.ToUpper(strings.TrimSpace(sql)), "EXPLAIN") {
		upper := strings.ToUpper(strings.TrimSpace(sql))
		if strings.HasPrefix(upper, "SELECT") {
			if res, err := s.eng.ExecContext(ctx, "EXPLAIN "+strings.TrimSuffix(strings.TrimSpace(sql), ";")); err == nil {
				fmt.Fprint(s.out, res.Plan)
			}
		}
	}
	var opts []engine.ExecOption
	if s.analyze {
		opts = append(opts, engine.WithAnalyze())
	}
	res, err := s.sess.ExecContext(ctx, stmt, opts...)
	if err != nil {
		fmt.Fprintf(s.out, "error: %v\n", err)
		return
	}
	if s.analyze && res.Analyzed != "" {
		fmt.Fprint(s.out, res.Analyzed)
	}
	s.printResult(res)
}

func (s *shell) printResult(res *engine.Result) {
	if res.Plan != "" {
		fmt.Fprint(s.out, res.Plan)
		return
	}
	if len(res.Columns) == 0 {
		fmt.Fprintf(s.out, "ok (%d rows affected)\n", res.Affected)
		return
	}
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(res.Rows))
	for ri, row := range res.Rows {
		cells[ri] = make([]string, len(row))
		for ci, d := range row {
			cells[ri][ci] = formatDatum(d)
			if len(cells[ri][ci]) > widths[ci] {
				widths[ci] = len(cells[ri][ci])
			}
		}
	}
	line := func(parts []string) {
		for i, p := range parts {
			fmt.Fprintf(s.out, " %-*s", widths[i], p)
			if i < len(parts)-1 {
				fmt.Fprint(s.out, " |")
			}
		}
		fmt.Fprintln(s.out)
	}
	line(res.Columns)
	for i, w := range widths {
		fmt.Fprint(s.out, " ", strings.Repeat("-", w))
		if i < len(widths)-1 {
			fmt.Fprint(s.out, " +")
		}
	}
	fmt.Fprintln(s.out)
	for _, row := range cells {
		line(row)
	}
	fmt.Fprintf(s.out, "(%d rows)\n", len(res.Rows))
}

func formatDatum(d sqltypes.Datum) string {
	if d.IsNull() {
		return "NULL"
	}
	return d.String()
}
