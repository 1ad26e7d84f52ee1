// Command rfbench regenerates the paper's evaluation tables.
//
// Usage:
//
//	rfbench -exp table1 [-sizes 5000,10000,15000] [-check]
//	rfbench -exp table2 [-sizes 100,500,1000,1500,2000,3000,5000] [-check]
//	rfbench -exp patterns    # print the Fig. 2/4/10/13 rewrites and plans
//	rfbench -exp maintenance # §2.3 incremental update vs. full refresh
//	rfbench -exp window      # partition-parallel Window operator scaling and the shared-sort grid
//	rfbench -exp all    [-quick]
//
// -quick shrinks the size lists so a full run finishes in seconds; -check
// additionally verifies every strategy's result against native evaluation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rfview/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1, table2, patterns, maintenance, window, or all")
	sizes := flag.String("sizes", "", "comma-separated sequence sizes (default: the paper's)")
	check := flag.Bool("check", false, "verify every strategy against native evaluation")
	quick := flag.Bool("quick", false, "use reduced size lists for a fast run")
	csv := flag.Bool("csv", false, "emit machine-readable CSV instead of the paper-style tables")
	flag.Parse()

	var sizeList []int
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v <= 0 {
				fatalf("bad size %q", s)
			}
			sizeList = append(sizeList, v)
		}
	}

	if *exp == "maintenance" {
		list := sizeList
		if list == nil {
			list = bench.MaintenanceSizes
			if *quick {
				list = []int{500, 2000}
			}
		}
		fmt.Fprintf(os.Stderr, "Running maintenance experiment (sizes %v)\n", list)
		rows, err := bench.RunMaintenance(list)
		if err != nil {
			fatalf("maintenance: %v", err)
		}
		ratioSizes := bench.DeltaRatioSizes
		if *quick {
			ratioSizes = []int{2000, 10000}
		}
		fmt.Fprintf(os.Stderr, "Running delta-vs-full grid (sizes %v, fracs %v)\n",
			ratioSizes, bench.DeltaRatioFracs)
		ratios, err := bench.RunDeltaRatios(ratioSizes, bench.DeltaRatioFracs)
		if err != nil {
			fatalf("maintenance: %v", err)
		}
		fmt.Print(bench.FormatMaintenance(rows))
		fmt.Println()
		fmt.Print(bench.FormatDeltaRatios(ratios))
		return
	}

	if *exp == "window" {
		cfg := bench.DefaultWindowConfig()
		if *quick {
			cfg.Partitions = 16
			cfg.RowsPerPartition = 200
			cfg.Trials = 3
		}
		fmt.Fprintf(os.Stderr, "Running window experiment (%d partitions x %d rows, %d trials, workers 1/2/4)\n",
			cfg.Partitions, cfg.RowsPerPartition, cfg.Trials)
		rows, err := bench.RunWindowParallel(cfg, []int{1, 2, 4})
		if err != nil {
			fatalf("window: %v", err)
		}
		overCounts := []int{1, 2, 4, 8}
		fmt.Fprintf(os.Stderr, "Running multi-function grid (%v OVER clauses, shared vs unshared sorts)\n",
			overCounts)
		multi, err := bench.RunMultiWindow(cfg, overCounts)
		if err != nil {
			fatalf("window multi: %v", err)
		}
		fmt.Print(bench.FormatWindow(rows))
		fmt.Println()
		fmt.Print(bench.FormatMultiWindow(multi))
		return
	}

	if *exp == "patterns" {
		report, err := bench.PatternsReport()
		if err != nil {
			fatalf("patterns: %v", err)
		}
		fmt.Print(report)
		return
	}

	runT1 := *exp == "table1" || *exp == "all"
	runT2 := *exp == "table2" || *exp == "all"
	if !runT1 && !runT2 {
		fatalf("unknown experiment %q (want table1, table2, patterns, maintenance, window, or all)", *exp)
	}

	if runT1 {
		list := sizeList
		if list == nil {
			if *quick {
				list = []int{500, 1000, 2000}
			} else {
				list = bench.Table1Sizes
			}
		}
		fmt.Printf("Running Table 1 (sizes %v)…\n", list)
		rows, err := bench.RunTable1(list, *check)
		if err != nil {
			fatalf("table1: %v", err)
		}
		fmt.Println()
		if *csv {
			fmt.Print(bench.CSVTable1(rows))
		} else {
			fmt.Print(bench.FormatTable1(rows))
		}
		fmt.Println()
	}
	if runT2 {
		list := sizeList
		if list == nil {
			if *quick {
				list = []int{100, 300, 600}
			} else {
				list = bench.Table2Sizes
			}
		}
		fmt.Printf("Running Table 2 (sizes %v)…\n", list)
		rows, err := bench.RunTable2(list, *check)
		if err != nil {
			fatalf("table2: %v", err)
		}
		fmt.Println()
		if *csv {
			fmt.Print(bench.CSVTable2(rows))
		} else {
			fmt.Print(bench.FormatTable2(rows))
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rfbench: "+format+"\n", args...)
	os.Exit(1)
}
