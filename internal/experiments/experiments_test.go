package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestRegistryComplete checks every paper artifact has an experiment.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "table3", "fig2", "fig3", "table4", "fig4", "fig5",
		"table5", "fig6", "fig7", "table7", "fig8", "fig9", "fig10",
		"table8", "appA", "appB", "appC", "appD", "appE", "appF", "appG", "appH",
		"ext-lru", "ext-hints", "ext-writes", "ext-multi", "lookahead",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%s) not found", id)
		}
	}
	if _, ok := ByID("bogus"); ok {
		t.Error("ByID(bogus) should not resolve")
	}
}

// TestEveryExperimentQuick runs each experiment alone, with fresh
// Options, and requires exactly its section of golden_all_quick.txt. The
// runner shares runs across the experiments of one Options, so this
// checks that no experiment depends on another having run first.
func TestEveryExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take a few seconds each")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_all_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	reg := Registry()
	header := func(i int) int {
		if i == len(reg) {
			return len(golden)
		}
		at := bytes.Index(golden, []byte(fmt.Sprintf("### %s — %s\n\n", reg[i].ID, reg[i].Title)))
		if at < 0 {
			t.Fatalf("golden_all_quick.txt has no section for %s", reg[i].ID)
		}
		return at
	}
	for i, e := range reg {
		want := string(golden[header(i):header(i+1)])
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := RunAll(&Options{Out: &buf, Quick: true}, []Experiment{e}); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != want {
				t.Errorf("%s alone differs from its golden section.\ngot:\n%s\nwant:\n%s", e.ID, got, want)
			}
		})
	}
}

// TestQuickTraceTruncation: quick mode shrinks traces but keeps names.
func TestQuickTraceTruncation(t *testing.T) {
	o := &Options{Quick: true}
	tr := getTrace(o, "synth")
	if len(tr.Refs) >= 100000 {
		t.Error("quick trace not truncated")
	}
	full := getTrace(&Options{}, "synth")
	if len(full.Refs) != 100000 {
		t.Error("full trace truncated")
	}
}

func TestDiskCounts(t *testing.T) {
	if got := diskCounts("synth"); len(got) != 4 {
		t.Errorf("synth disk counts: %v", got)
	}
	if got := diskCounts("cscope2"); got[len(got)-1] != 16 {
		t.Errorf("cscope2 disk counts: %v", got)
	}
	if got := diskCounts("xds"); len(got) != 6 {
		t.Errorf("xds disk counts: %v", got)
	}
}
