package ppcsim_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"ppcsim"
)

func TestParseAlgorithm(t *testing.T) {
	cases := []struct {
		in      string
		want    ppcsim.Algorithm
		wantErr bool
	}{
		{"demand", ppcsim.Demand, false},
		{"fixed-horizon", ppcsim.FixedHorizon, false},
		{"aggressive", ppcsim.Aggressive, false},
		{"reverse-aggressive", ppcsim.ReverseAggressive, false},
		{"forestall", ppcsim.Forestall, false},
		{"demand-lru", ppcsim.DemandLRU, false},
		{"Forestall", ppcsim.Forestall, false},
		{"  AGGRESSIVE  ", ppcsim.Aggressive, false},
		{"", "", true},
		{"tip2", "", true},
		{"fixed horizon", "", true},
	}
	for _, c := range cases {
		got, err := ppcsim.ParseAlgorithm(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseAlgorithm(%q) = %q, want error", c.in, got)
			} else if !strings.Contains(err.Error(), "forestall") {
				t.Errorf("ParseAlgorithm(%q) error %q should list the valid names", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("ParseAlgorithm(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseDiscipline(t *testing.T) {
	cases := []struct {
		in      string
		want    ppcsim.Discipline
		wantErr bool
	}{
		{"cscan", ppcsim.CSCAN, false},
		{"fcfs", ppcsim.FCFS, false},
		{"CSCAN", ppcsim.CSCAN, false},
		{" FCFS ", ppcsim.FCFS, false},
		{"", 0, true},
		{"sstf", 0, true},
	}
	for _, c := range cases {
		got, err := ppcsim.ParseDiscipline(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseDiscipline(%q) = %v, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDiscipline(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("ParseDiscipline(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestOptionsRejectNonFinite: every float option rejects NaN and both
// infinities with a *ConfigError naming it. A plain range check passes
// NaN, since every comparison with NaN is false.
func TestOptionsRejectNonFinite(t *testing.T) {
	tr, err := ppcsim.NewTrace("ld")
	if err != nil {
		t.Fatal(err)
	}
	fields := []struct {
		field string
		set   func(o *ppcsim.Options, x float64)
	}{
		{"FetchEstimate", func(o *ppcsim.Options, x float64) { o.FetchEstimate = x }},
		{"ForestallFixedF", func(o *ppcsim.Options, x float64) { o.ForestallFixedF = x }},
		{"DriverOverheadMs", func(o *ppcsim.Options, x float64) { o.DriverOverheadMs = x }},
		{"Hints", func(o *ppcsim.Options, x float64) { o.Hints = &ppcsim.HintSpec{Fraction: x, Accuracy: 1} }},
		{"Hints", func(o *ppcsim.Options, x float64) { o.Hints = &ppcsim.HintSpec{Fraction: 1, Accuracy: x} }},
		{"DiskGeometry", func(o *ppcsim.Options, x float64) {
			g := ppcsim.HP97560Geometry()
			g.SeekLin = x
			o.DiskGeometry = &g
		}},
	}
	for _, f := range fields {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			o := ppcsim.Options{Trace: tr, Algorithm: ppcsim.Forestall}
			f.set(&o, x)
			err := o.Validate()
			var cfgErr *ppcsim.ConfigError
			if !errors.As(err, &cfgErr) || cfgErr.Field != f.field {
				t.Errorf("%s = %g: Validate() = %v, want a *ConfigError on %s", f.field, x, err, f.field)
				continue
			}
			if _, err := ppcsim.Run(o); !errors.As(err, &cfgErr) {
				t.Errorf("%s = %g: Run error %v is not a *ConfigError", f.field, x, err)
			}
		}
	}
}

// TestOptionsValidate exercises every rejection path and checks the
// returned *ConfigError names the offending field.
func TestOptionsValidate(t *testing.T) {
	tr, err := ppcsim.NewTrace("synth")
	if err != nil {
		t.Fatal(err)
	}
	ok := func() ppcsim.Options {
		return ppcsim.Options{Trace: tr, Algorithm: ppcsim.Forestall}
	}
	cases := []struct {
		name  string
		opts  ppcsim.Options
		field string // "" = expect valid
	}{
		{"valid minimal", ok(), ""},
		{"valid full hints", func() ppcsim.Options {
			o := ok()
			o.Hints = &ppcsim.HintSpec{Fraction: 0.5, Accuracy: 0.9}
			return o
		}(), ""},
		{"nil trace", ppcsim.Options{Algorithm: ppcsim.Demand}, "Trace"},
		{"invalid trace", ppcsim.Options{Trace: &ppcsim.Trace{Name: "empty"}, Algorithm: ppcsim.Demand}, "Trace"},
		{"missing algorithm", ppcsim.Options{Trace: tr}, "Algorithm"},
		{"unknown algorithm", ppcsim.Options{Trace: tr, Algorithm: "tip2"}, "Algorithm"},
		{"negative disks", func() ppcsim.Options {
			o := ok()
			o.Disks = -1
			return o
		}(), "Disks"},
		{"unknown scheduler", func() ppcsim.Options {
			o := ok()
			o.Scheduler = ppcsim.Discipline(7)
			return o
		}(), "Scheduler"},
		{"one-block cache", func() ppcsim.Options {
			o := ok()
			o.CacheBlocks = 1
			return o
		}(), "CacheBlocks"},
		{"negative cache", func() ppcsim.Options {
			o := ok()
			o.CacheBlocks = -5
			return o
		}(), "CacheBlocks"},
		{"negative batch", func() ppcsim.Options {
			o := ok()
			o.BatchSize = -1
			return o
		}(), "BatchSize"},
		{"negative horizon", func() ppcsim.Options {
			o := ok()
			o.Horizon = -1
			return o
		}(), "Horizon"},
		{"negative fetch estimate", func() ppcsim.Options {
			o := ok()
			o.FetchEstimate = -2
			return o
		}(), "FetchEstimate"},
		{"negative forestall F", func() ppcsim.Options {
			o := ok()
			o.ForestallFixedF = -0.5
			return o
		}(), "ForestallFixedF"},
		{"hints with reverse aggressive", ppcsim.Options{
			Trace: tr, Algorithm: ppcsim.ReverseAggressive,
			Hints: &ppcsim.HintSpec{Fraction: 0.5, Accuracy: 1},
		}, "Hints"},
		{"bad hint fraction", func() ppcsim.Options {
			o := ok()
			o.Hints = &ppcsim.HintSpec{Fraction: 1.5, Accuracy: 1}
			return o
		}(), "Hints"},
		{"bad geometry", func() ppcsim.Options {
			o := ok()
			g := ppcsim.HP97560Geometry()
			g.RPM = 0
			o.DiskGeometry = &g
			return o
		}(), "DiskGeometry"},
		{"geometry whose sectors per cylinder overflow", func() ppcsim.Options {
			o := ok()
			g := ppcsim.HP97560Geometry()
			g.SectorsPerTrack, g.TracksPerCylinder = 1<<32, 1<<32
			o.DiskGeometry = &g
			return o
		}(), "DiskGeometry"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.opts.Validate()
			if c.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error on %s", c.field)
			}
			var cfgErr *ppcsim.ConfigError
			if !errors.As(err, &cfgErr) {
				t.Fatalf("Validate() = %v, want *ConfigError", err)
			}
			if cfgErr.Field != c.field {
				t.Errorf("ConfigError.Field = %q, want %q (err: %v)", cfgErr.Field, c.field, err)
			}
			// Run must reject the same options with the same error shape.
			if _, runErr := ppcsim.Run(c.opts); runErr == nil {
				t.Error("Run accepted options Validate rejected")
			} else if !errors.As(runErr, &cfgErr) {
				t.Errorf("Run error %v is not a *ConfigError", runErr)
			}
		})
	}
}

// TestRunMultiConfigError: RunMulti reports each configuration mistake
// as a *ConfigError naming the MultiConfig field, as Run does for
// Options.
func TestRunMultiConfigError(t *testing.T) {
	build := func(writes bool) *ppcsim.Trace {
		b := ppcsim.NewTraceBuilder("m").Seed(1)
		f := b.AddFile(8)
		b.Loop(f, 2)
		if writes {
			b.WriteSequential(f, 0, 2)
		}
		tr, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	tr, w := build(false), build(true)
	one := []ppcsim.ProcessSpec{{Trace: tr}}
	cases := []struct {
		name  string
		cfg   ppcsim.MultiConfig
		field string
	}{
		{"no processes", ppcsim.MultiConfig{Disks: 1, CacheBlocks: 8}, "Processes"},
		{"zero disks", ppcsim.MultiConfig{Processes: one, CacheBlocks: 8}, "Disks"},
		{"negative disks", ppcsim.MultiConfig{Processes: one, Disks: -2, CacheBlocks: 8}, "Disks"},
		{"1-block cache", ppcsim.MultiConfig{Processes: one, Disks: 1, CacheBlocks: 1}, "CacheBlocks"},
		{"unknown scheduler", ppcsim.MultiConfig{Processes: one, Disks: 1, CacheBlocks: 8, Discipline: ppcsim.Discipline(7)}, "Discipline"},
		{"NaN driver overhead", ppcsim.MultiConfig{Processes: one, Disks: 1, CacheBlocks: 8, DriverOverheadMs: math.NaN()}, "DriverOverheadMs"},
		{"infinite driver overhead", ppcsim.MultiConfig{Processes: one, Disks: 1, CacheBlocks: 8, DriverOverheadMs: math.Inf(-1)}, "DriverOverheadMs"},
		{"no trace", ppcsim.MultiConfig{Processes: []ppcsim.ProcessSpec{{}}, Disks: 1, CacheBlocks: 8}, "Processes"},
		{"write ref", ppcsim.MultiConfig{Processes: []ppcsim.ProcessSpec{{Trace: w}}, Disks: 1, CacheBlocks: 8}, "Processes"},
	}
	for _, c := range cases {
		_, err := ppcsim.RunMulti(c.cfg)
		var ce *ppcsim.ConfigError
		if !errors.As(err, &ce) || ce.Field != c.field {
			t.Errorf("%s: err %v, want a *ConfigError on %s", c.name, err, c.field)
		}
	}
	if _, err := ppcsim.RunMulti(ppcsim.MultiConfig{Processes: one, Disks: 1, CacheBlocks: 8}); err != nil {
		t.Errorf("a valid config failed: %v", err)
	}
}
