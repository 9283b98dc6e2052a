// Command ppc-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	ppc-experiments -list
//	ppc-experiments -run fig2,table4
//	ppc-experiments -run all -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ppcsim"
	"ppcsim/internal/experiments"
)

func main() {
	var (
		runIDs   = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		quick    = flag.Bool("quick", false, "truncate traces and shrink grids for a fast pass")
		svgDir   = flag.String("svg", "", "also write figures as SVG files into this directory")
		algNames = flag.String("algs", "", "restrict appendix baselines to these comma-separated algorithms")
	)
	flag.Parse()

	var algs []ppcsim.Algorithm
	for _, name := range strings.Split(*algNames, ",") {
		if strings.TrimSpace(name) == "" {
			continue
		}
		a, err := ppcsim.ParseAlgorithm(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		algs = append(algs, a)
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	exps := experiments.Registry()
	if *runIDs != "all" {
		exps = nil
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(1)
			}
			exps = append(exps, e)
		}
	}
	o := &experiments.Options{Out: os.Stdout, Quick: *quick, SVGDir: *svgDir, Algs: algs}
	if err := experiments.RunAll(o, exps); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
