package experiments

import (
	"fmt"

	"ppcsim"
	"ppcsim/internal/report"
)

// The experiments in this file go beyond the paper's evaluation, covering
// the extensions its section 6 names as open: the value of
// better-than-LRU replacement in isolation, and sensitivity to
// incomplete or inaccurate hints.

// ExtLRU compares a conventional hint-less LRU cache against
// offline-optimal demand replacement and the hinted prefetchers,
// decomposing the benefit of hints into its two halves (better
// replacement, deep prefetching).
func ExtLRU(o *Options) error {
	names := []string{"dinero", "glimpse", "postgres-select", "synth"}
	if o.Quick {
		names = []string{"glimpse"}
	}
	for _, name := range names {
		disks := diskCounts(name)
		t, _ := algTable(o, fmt.Sprintf("LRU vs optimal replacement vs prefetching on %s", name), getTrace(o, name), disks[:min(len(disks), 4)],
			[]ppcsim.Algorithm{ppcsim.DemandLRU, ppcsim.Demand, ppcsim.Forestall}, nil)
		t.Notes = append(t.Notes,
			"demand-lru = no hints at all; demand = hints used only for replacement; forestall = hints used for replacement and prefetching")
		t.Render(o.Out)
	}
	return nil
}

// ExtWrites interleaves write-behind traffic with the postgres-select
// read stream at increasing write ratios, showing writes never stall the
// process directly but steal disk time from prefetching — the tradeoff
// behind the paper's "write behind strategies can mask update latency".
func ExtWrites(o *Options) error {
	base := getTrace(o, "postgres-select")
	ratios := []int{0, 8, 4, 2, 1} // writes per N reads (0 = none, 1 = every read)
	algs := []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.Forestall}
	const disks = 2
	t := &report.Table{
		Title:   fmt.Sprintf("Write-behind interference on postgres-select (%d disks): elapsed (secs)", disks),
		Columns: []string{"write ratio"},
	}
	for _, a := range algs {
		t.Columns = append(t.Columns, string(a))
	}
	var labels []string
	var rows [][]cell
	for _, every := range ratios {
		label := "no writes"
		if every > 0 {
			label = fmt.Sprintf("1 write per %d reads", every)
		}
		labels, rows = append(labels, label), append(rows, algCells(withWrites(base, every), algs, disks, nil))
	}
	t.Notes = append(t.Notes, "writes are issued write-behind: the process never waits for them, but the disks do")
	elapsedTable(o, t, labels, rows)
	return nil
}

// withWrites interleaves one sequential log write per `every` reads.
func withWrites(base *ppcsim.Trace, every int) *ppcsim.Trace {
	if every <= 0 {
		return base
	}
	b := ppcsim.NewTraceBuilder(base.Name + "+writes")
	data := b.AddFile(base.NumBlocks())
	logf := b.AddFile(2048)
	logPos := 0
	for i, r := range base.Refs {
		b.Ref(data, int(r.Block), r.ComputeMs)
		if i%every == every-1 {
			b.WriteSequential(logf, logPos%2048, 1)
			logPos++
		}
	}
	b.CacheBlocks(base.CacheBlocks)
	b.PlaceByFile(base.PlaceByFile)
	tr, err := b.Build()
	if err != nil {
		panic(err)
	}
	return tr
}

// ExtMulti measures the paper's closing prediction about competing
// processes: a non-hinting process suffers more next to an aggressively
// prefetching neighbor than next to a fixed-horizon one, because
// aggressive places more load on the disks and the cache.
func ExtMulti(o *Options) error {
	mkHog := func() *ppcsim.Trace {
		b := ppcsim.NewTraceBuilder("hog").Seed(1)
		f := b.AddFile(1500)
		passes := 6
		if o.Quick {
			passes = 2
		}
		b.ComputeExp(1.0).Loop(f, passes)
		tr, err := b.Build()
		if err != nil {
			panic(err)
		}
		return tr
	}
	mkVictim := func() *ppcsim.Trace {
		b := ppcsim.NewTraceBuilder("victim").Seed(2)
		f := b.AddFile(800)
		n := 3000
		if o.Quick {
			n = 1000
		}
		b.ComputeExp(3.0).Zipf(f, n, 1.4)
		tr, err := b.Build()
		if err != nil {
			panic(err)
		}
		return tr
	}
	t := &report.Table{
		Title: "A non-hinting process next to a hinted prefetcher (2 disks, shared 1024-block cache)",
		Columns: []string{"neighbor", "victim elapsed (s)", "victim stall (s)",
			"neighbor elapsed (s)", "neighbor fetches"},
	}
	solo, err := ppcsim.RunMulti(ppcsim.MultiConfig{
		Processes:   []ppcsim.ProcessSpec{{Trace: mkVictim()}},
		Disks:       2,
		CacheBlocks: 1024,
	})
	if err != nil {
		return err
	}
	t.AddRow("(none: victim alone)", report.F(solo.Processes[0].ElapsedSec),
		report.F(solo.Processes[0].StallTimeSec), "-", "-")
	for _, alg := range []struct {
		name string
		spec ppcsim.ProcessSpec
	}{
		{"fixed-horizon", ppcsim.ProcessSpec{Algorithm: ppcsim.MultiFixedHorizon, Hinted: true}},
		{"aggressive", ppcsim.ProcessSpec{Algorithm: ppcsim.MultiAggressive, Hinted: true}},
	} {
		spec := alg.spec
		spec.Trace = mkHog()
		res, err := ppcsim.RunMulti(ppcsim.MultiConfig{
			Processes:   []ppcsim.ProcessSpec{spec, {Trace: mkVictim()}},
			Disks:       2,
			CacheBlocks: 1024,
		})
		if err != nil {
			return err
		}
		hog, victim := res.Processes[0], res.Processes[1]
		t.AddRow(alg.name, report.F(victim.ElapsedSec), report.F(victim.StallTimeSec),
			report.F(hog.ElapsedSec), report.I(hog.Fetches))
	}
	t.Notes = append(t.Notes,
		`paper section 6: "fixed horizon ... is likely to be least affected by unhinted accesses and to have the smallest impact on other executing processes"`)
	t.Render(o.Out)
	return nil
}

// ExtHints sweeps hint completeness and accuracy for the online
// algorithms, reporting elapsed time as hints degrade toward the
// hint-less baseline.
func ExtHints(o *Options) error {
	names := []string{"postgres-select", "cscope2"}
	if o.Quick {
		names = []string{"postgres-select"}
	}
	fractions := []float64{1.0, 0.75, 0.5, 0.25, 0.0}
	accuracies := []float64{1.0, 0.9, 0.7}
	algs := []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.Forestall}
	const disks = 2
	for _, name := range names {
		tr := getTrace(o, name)
		t := &report.Table{
			Title:   fmt.Sprintf("Hint sensitivity on %s (%d disks): elapsed time (secs)", name, disks),
			Columns: []string{"hints"},
		}
		for _, a := range algs {
			t.Columns = append(t.Columns, string(a))
		}
		t.Columns = append(t.Columns, "demand-lru")
		var labels []string
		var rows [][]cell
		addRow := func(label string, h *ppcsim.HintSpec) {
			labels, rows = append(labels, label), append(rows, algCells(tr, algs, disks, h))
		}
		for _, f := range fractions {
			addRow(fmt.Sprintf("%.0f%% disclosed", f*100), &ppcsim.HintSpec{Fraction: f, Accuracy: 1, Seed: 42})
		}
		for _, a := range accuracies[1:] {
			addRow(fmt.Sprintf("100%% disclosed, %.0f%% accurate", a*100), &ppcsim.HintSpec{Fraction: 1, Accuracy: a, Seed: 42})
		}
		// The hint-less baseline is the same run on every row; ask once.
		res := o.run(append(rows, algCells(tr, []ppcsim.Algorithm{ppcsim.DemandLRU}, disks, nil))...)
		for i, label := range labels {
			elapsedRow(t, label, res[i], res[len(labels)])
		}
		t.Notes = append(t.Notes,
			"undisclosed references surface as demand misses; inaccurate hints waste fetches on blocks never used")
		t.Render(o.Out)
	}
	return nil
}
