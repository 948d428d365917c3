// Command evaluate regenerates the paper's experiment tables.
//
// Usage:
//
//	evaluate -table 2        # Table 2: ten ILT-like shapes, UB, all methods
//	evaluate -table 3        # Table 3: ten known-optimal generated shapes
//	evaluate -table all      # both
//	evaluate -methods mbf,proto-eda
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"maskfrac"
)

func main() {
	var (
		table   = flag.String("table", "all", "which table to run: 2, 3 or all")
		methods = flag.String("methods", "gsc,mp,proto-eda,mbf", "comma-separated methods")
	)
	flag.Parse()
	var ms []maskfrac.Method
	for _, m := range strings.Split(*methods, ",") {
		ms = append(ms, maskfrac.Method(strings.TrimSpace(m)))
	}
	params := maskfrac.DefaultParams()
	if *table == "2" || *table == "all" {
		fmt.Println("=== Table 2: ILT-like mask shapes (shot count, failing pixels, runtime) ===")
		rows, err := maskfrac.RunSuite(maskfrac.ILTSuite(), params, ms)
		if err != nil {
			fatal(err)
		}
		fmt.Print(maskfrac.FormatTable(rows, ms, false))
		summarize(rows, ms)
	}
	if *table == "3" || *table == "all" {
		fmt.Println("=== Table 3: generated benchmark shapes with known optimal ===")
		rows, err := maskfrac.RunSuite(maskfrac.GeneratedSuite(params), params, ms)
		if err != nil {
			fatal(err)
		}
		fmt.Print(maskfrac.FormatTable(rows, ms, true))
		summarize(rows, ms)
	}
}

func summarize(rows []maskfrac.Row, ms []maskfrac.Method) {
	fmt.Println("total shots per method:")
	for _, m := range ms {
		fmt.Printf("  %-10s %d\n", m, maskfrac.TotalShots(rows, m))
	}
	fmt.Println("total runtime per method:")
	for _, mr := range maskfrac.MethodRuntimes(rows) {
		fmt.Printf("  %-10s %.2fs\n", mr.Method, mr.Runtime.Seconds())
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "evaluate:", err)
	os.Exit(1)
}
