// Command srbbench regenerates the reproduction experiment tables
// E1–E13 (see DESIGN.md §3 and EXPERIMENTS.md). Each table exercises
// one measurable claim of the paper, or of the reproduction, on a
// synthetic workload.
//
//	srbbench            # run everything at scale 1
//	srbbench -e e2 -scale 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gosrb/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("e", "", "run one experiment by id ("+strings.Join(experiments.IDs(), ", ")+"); default all")
		scale = flag.Int("scale", 1, "workload scale factor")
	)
	flag.Parse()
	if *exp != "" {
		t, ok := experiments.ByID(*exp, *scale)
		if !ok {
			fmt.Fprintf(os.Stderr, "srbbench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		fmt.Println(t.Format())
		return
	}
	for _, t := range experiments.All(*scale) {
		fmt.Println(t.Format())
	}
}
