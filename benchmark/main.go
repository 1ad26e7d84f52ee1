// Command benchmark is rfview's one benchmark: five named workloads, gated
// end-to-end metrics and, with -trace 1, per-layer metrics measured from
// outside by timing calls into each layer's public functions. See README.md
// here and BENCHMARK.json at the root of the repository.
//
//	go run ./benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-selfcheck]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// provenance is carried by every output.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
}

func (p provenance) String() string {
	return fmt.Sprintf("commit=%s go=%s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g trace=%d",
		p.Commit, p.GoVersion, p.NProc, p.GOMAXPROCS, p.Seed, p.Seconds, p.Trace)
}

// findRoot walks up from the working directory to the rfview module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module rfview\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the rfview module: no go.mod above the working directory")
		}
		dir = parent
	}
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // a checkout without git metadata
	}
	return strings.TrimSpace(string(out))
}

func main() {
	workload := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Int64("seed", 1, "seed of the data and statement generators")
	seconds := flag.Float64("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = the traced per-layer run in place of the gated run")
	selfcheck := flag.Bool("selfcheck", false, "run the gated set twice and compare against the bounds")
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *trace, *selfcheck))
}

func run(workload string, seed int64, seconds float64, trace int, selfcheck bool) int {
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defs := workloads
	if workload != "" {
		def := findWorkload(workload)
		if def == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", workload)
			return 2
		}
		defs = []workloadDef{*def}
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := defaultConfig(root, seed, seconds)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	for _, d := range defs {
		if strings.HasPrefix(d.Name, "serve_") && cfg.serverBin == "" {
			if cfg.serverBin, err = buildServer(root, cfg.outDir); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
		}
	}
	prov := provenance{gitCommit(root), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed, seconds, trace}
	fmt.Println("rfview benchmark", prov)

	if selfcheck {
		return runSelfcheck(ctx, cfg, prov)
	}
	reports, err := runSet(ctx, cfg, defs, trace == 1)
	for _, r := range reports {
		printReport(r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := writeResult(cfg.outDir, prov, reports); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return lastLine(reports, trace == 1)
}

// runSet runs the workloads in order; with both scan workloads in the set it
// also compares their per-statement checksums.
func runSet(ctx context.Context, cfg config, defs []workloadDef, traced bool) ([]*report, error) {
	var out []*report
	byName := map[string]*report{}
	for i := range defs {
		var rep *report
		var err error
		if traced {
			rep, err = runTraced(ctx, cfg, &defs[i])
		} else {
			rep, err = runGated(ctx, cfg, &defs[i])
		}
		if err != nil {
			return out, err
		}
		out = append(out, rep)
		byName[rep.Workload] = rep
	}
	if a, b := byName["scan_window"], byName["scan_window_oocore"]; a != nil && b != nil && !traced {
		compared := 0
		for idx, sum := range b.checksums {
			if other, ok := a.checksums[idx]; ok {
				compared++
				b.Attempted++
				if other != sum {
					b.Failed++
					b.Errors = append(b.Errors, fmt.Sprintf("statement %d: checksum differs from scan_window", idx))
				}
			}
		}
		b.set("fail_ratio", float64(b.Failed)/float64(b.Attempted), b.Attempted, fmt.Sprintf("%d result checksums compared with scan_window", compared))
	}
	return out, nil
}

func printReport(r *report) {
	fmt.Printf("\nworkload %s: %s\n", r.Workload, r.Why)
	fmt.Printf("  %-26s %14s %-7s %8s  %s\n", "metric", "value", "unit", "n", "note")
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	order := map[string]int{}
	for i, m := range allMetrics() {
		order[m.Name] = i
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Printf("  %-26s %14.4f %-7s %8d  %s\n", n, v.Value, v.Unit, v.N, v.Note)
	}
	if len(r.Layers) > 0 {
		fmt.Printf("  %-26s %8s %14s %14s %12s\n", "span", "count", "busy_us", "self_us", "p50_us")
		for _, l := range r.Layers {
			fmt.Printf("  %-26s %8d %14.1f %14.1f %12.1f\n", l.Name, l.Count, l.BusyUs, l.SelfUs, l.P50Us)
		}
	}
	fmt.Printf("  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Println("  error:", e)
	}
	for _, g := range r.Invalid {
		fmt.Println("  invalid workload:", g)
	}
}

func writeResult(outDir string, prov provenance, reports []*report) error {
	data, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Workloads  []*report  `json:"workloads"`
	}{prov, reports}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "result.json"), append(data, '\n'), 0o644)
}

// lastLine prints the result object the driver reads and returns the exit
// code. One workload reports its metrics by name; several prefix the
// workload's name.
func lastLine(reports []*report, traced bool) int {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	invalid := false
	for _, r := range reports {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		invalid = invalid || len(r.Invalid) > 0
		for _, d := range defs {
			name := d.Name
			if len(reports) > 1 {
				name = r.Workload + "." + d.Name
			}
			v := r.Metrics[d.Name].Value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			out.Metrics[name] = metric{v, d.Unit}
		}
	}
	out.Correct = out.Failed == 0 && !invalid
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println()
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// runSelfcheck runs the full gated set twice on this build, the second time
// in reverse workload order, and fails when a gated metric moves by more
// than its bound or any operation fails.
func runSelfcheck(ctx context.Context, cfg config, prov provenance) int {
	reversed := make([]workloadDef, len(workloads))
	for i, w := range workloads {
		reversed[len(workloads)-1-i] = w
	}
	a, err := runSet(ctx, cfg, workloads, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	b, err := runSet(ctx, cfg, reversed, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := writeResult(cfg.outDir, prov, append(a, b...)); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	ok := true
	fmt.Printf("\n%-20s %-12s %12s %12s %8s %6s  %s\n", "workload", "metric", "run A", "run B", "diff", "bound", "verdict")
	for _, ra := range a {
		var rb *report
		for _, r := range b {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			diff := math.Abs(va-vb) / math.Min(va, vb)
			verdict := "ok"
			if !(diff <= m.Bound) {
				verdict, ok = "OUTSIDE BOUND", false
			}
			fmt.Printf("%-20s %-12s %12.4f %12.4f %7.1f%% %5.0f%%  %s\n", ra.Workload, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
		for _, r := range []*report{ra, rb} {
			if r.Failed > 0 || len(r.Invalid) > 0 {
				printReport(r)
				ok = false
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}
