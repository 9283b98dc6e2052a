// Command ppc-traces prints the bundled traces' summary data (the paper's
// Table 3), dumps traces to the text format, and manages columnar binary
// trace files (see docs/trace-format.md).
//
// Usage:
//
//	ppc-traces                                    # Table 3 summary
//	ppc-traces -dump synth -o synth.trace         # bundled trace as text
//	ppc-traces convert -o synth.col synth.trace   # text -> columnar
//	ppc-traces convert -o synth.trace synth.col   # columnar -> text
//	ppc-traces convert -trace synth -o synth.col  # bundled -> columnar
//	ppc-traces inspect synth.col                  # header + frame index
//	ppc-traces gen -refs 1e7 -blocks 65536 -pattern zipf -o big.col
//
// gen streams the synthetic trace straight into the columnar encoder, so
// generating a 10^9-reference file needs constant memory.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"ppcsim"
	"ppcsim/internal/report"
	"ppcsim/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges injected for the tests.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "convert":
			return convert(args[1:], stdout, stderr)
		case "inspect":
			return inspect(args[1:], stdout, stderr)
		case "gen":
			return gen(args[1:], stdout, stderr)
		}
	}
	return summary(args, stdout, stderr)
}

// summary is the original flag surface: the Table 3 report, plus -dump.
func summary(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppc-traces", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dump = fs.String("dump", "", "dump the named trace instead of printing the summary")
		out  = fs.String("o", "", "output file for -dump (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *dump != "" {
		tr, err := ppcsim.NewTrace(*dump)
		if err != nil {
			fmt.Fprintln(stderr, "ppc-traces:", err)
			return 1
		}
		w := stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(stderr, "ppc-traces:", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		if err := tr.Write(w); err != nil {
			fmt.Fprintln(stderr, "ppc-traces:", err)
			return 1
		}
		return 0
	}

	t := &report.Table{
		Title:   "Trace summary data (paper Table 3)",
		Columns: []string{"trace", "reads", "distinct blocks", "compute time (sec)", "files", "cache (blocks)"},
	}
	for _, name := range ppcsim.TraceNames {
		tr, err := ppcsim.NewTrace(name)
		if err != nil {
			fmt.Fprintln(stderr, "ppc-traces:", err)
			return 1
		}
		st := tr.Stats()
		t.AddRow(name, fmt.Sprintf("%d", st.Reads), fmt.Sprintf("%d", st.DistinctBlocks),
			report.F(st.ComputeSec), fmt.Sprintf("%d", len(tr.Files)), fmt.Sprintf("%d", tr.CacheBlocks))
	}
	t.Render(stdout)
	return 0
}

// convert transcodes between the text and columnar formats, sniffing the
// input's format from its magic.
func convert(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppc-traces convert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out     = fs.String("o", "", "output file (required)")
		bundled = fs.String("trace", "", "convert a bundled trace instead of an input file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "ppc-traces convert: -o is required")
		return 2
	}
	if (*bundled == "") == (fs.NArg() != 1) {
		fmt.Fprintln(stderr, "ppc-traces convert: exactly one input file (or -trace name) is required")
		return 2
	}

	var tr *ppcsim.Trace
	toColumnar := true
	if *bundled != "" {
		var err error
		if tr, err = ppcsim.NewTrace(*bundled); err != nil {
			fmt.Fprintln(stderr, "ppc-traces convert:", err)
			return 1
		}
	} else {
		in := fs.Arg(0)
		data, err := os.ReadFile(in)
		if err != nil {
			fmt.Fprintln(stderr, "ppc-traces convert:", err)
			return 1
		}
		if trace.IsColumnar(data) {
			toColumnar = false
			var src *trace.ColumnarSource
			if src, err = trace.NewColumnarSource(bytes.NewReader(data)); err == nil {
				tr, err = trace.Materialize(src)
			}
			if err != nil {
				fmt.Fprintln(stderr, "ppc-traces convert:", err)
				return 1
			}
		} else if tr, err = trace.Read(bytes.NewReader(data)); err != nil {
			fmt.Fprintln(stderr, "ppc-traces convert:", err)
			return 1
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(stderr, "ppc-traces convert:", err)
		return 1
	}
	if toColumnar {
		var n int64
		if n, err = trace.WriteColumnar(f, tr.Source()); err == nil {
			fmt.Fprintf(stdout, "%s: %d references, %d bytes (%.2f bytes/ref)\n",
				*out, len(tr.Refs), n, float64(n)/float64(len(tr.Refs)))
		}
	} else {
		err = tr.Write(f)
	}
	if err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(stderr, "ppc-traces convert:", err)
		return 1
	}
	return 0
}

// inspect prints a columnar file's header metadata and frame index using
// only the two point reads an mmap consumer would issue.
func inspect(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppc-traces inspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "ppc-traces inspect: exactly one columnar file is required")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "ppc-traces inspect:", err)
		return 1
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		fmt.Fprintln(stderr, "ppc-traces inspect:", err)
		return 1
	}
	info, err := trace.InspectColumnar(f, st.Size())
	if err != nil {
		fmt.Fprintln(stderr, "ppc-traces inspect:", err)
		return 1
	}
	m := info.Meta
	fmt.Fprintf(stdout, "name:         %s\n", m.Name)
	fmt.Fprintf(stdout, "references:   %d\n", m.Refs)
	fmt.Fprintf(stdout, "blocks:       %d\n", m.NumBlocks())
	fmt.Fprintf(stdout, "files:        %d\n", len(m.Files))
	fmt.Fprintf(stdout, "place-byfile: %t\n", m.PlaceByFile)
	fmt.Fprintf(stdout, "cache-blocks: %d\n", m.CacheBlocks)
	fmt.Fprintf(stdout, "frames:       %d\n", info.Frames)
	fmt.Fprintf(stdout, "bytes:        %d (%.2f bytes/ref)\n", info.DataBytes, float64(info.DataBytes)/float64(m.Refs))
	return 0
}

// gen writes a synthetic streaming trace to a columnar file without ever
// materializing it.
func gen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppc-traces gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out     = fs.String("o", "", "output columnar file (required)")
		refs    = fs.String("refs", "1e6", "reference count (scientific notation accepted)")
		blocks  = fs.Int("blocks", 65536, "block-ID space size")
		files   = fs.Int("files", 1, "number of files the block space is split into")
		pattern = fs.String("pattern", "loop", "access pattern: loop or zipf")
		meanMs  = fs.Float64("mean-ms", 0, "mean inter-reference compute time in ms (0 = 0.1)")
		seed    = fs.Int64("seed", 0, "generation seed")
		cache   = fs.Int("cache", 0, "default cache size in blocks (0 = 1280)")
		name    = fs.String("name", "", "trace name (default large-<pattern>-<refs>)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "ppc-traces gen: -o is required")
		return 2
	}
	nRefs, err := strconv.ParseFloat(*refs, 64)
	if err != nil || nRefs < 1 || nRefs != float64(int64(nRefs)) { //ppcvet:ignore exact integrality check on a parsed count, not simulation time
		fmt.Fprintf(stderr, "ppc-traces gen: bad -refs %q\n", *refs)
		return 2
	}
	spec := ppcsim.LargeTraceSpec{
		Name:          *name,
		Refs:          int64(nRefs),
		Blocks:        *blocks,
		Files:         *files,
		Pattern:       *pattern,
		MeanComputeMs: *meanMs,
		Seed:          *seed,
		CacheBlocks:   *cache,
	}
	src, err := spec.Source()
	if err != nil {
		fmt.Fprintln(stderr, "ppc-traces gen:", err)
		return 2
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(stderr, "ppc-traces gen:", err)
		return 1
	}
	n, err := ppcsim.WriteColumnarTrace(f, src)
	if err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(stderr, "ppc-traces gen:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: %d references, %d bytes (%.2f bytes/ref)\n",
		*out, spec.Refs, n, float64(n)/float64(spec.Refs))
	return 0
}
