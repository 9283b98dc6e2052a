package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"unsafe"

	"ppcsim/internal/layout"
)

// TestRefIsSixteenBytes pins the packed layout of a reference: resident
// traces and the engine's streaming rings hold one per position.
func TestRefIsSixteenBytes(t *testing.T) {
	if size := unsafe.Sizeof(Ref{}); size != 16 {
		t.Fatalf("Ref is %d bytes, want 16", size)
	}
}

// TestTable3Exact pins every generator to the paper's Table 3 (with the
// postgres compute totals following the self-consistent appendix tables).
func TestTable3Exact(t *testing.T) {
	for _, name := range Names {
		tr, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := PaperStats(name)
		if !ok {
			t.Fatalf("no paper stats for %s", name)
		}
		got := tr.Stats()
		if got.Reads != want.Reads {
			t.Errorf("%s: reads = %d, want %d", name, got.Reads, want.Reads)
		}
		if got.DistinctBlocks != want.DistinctBlocks {
			t.Errorf("%s: distinct = %d, want %d", name, got.DistinctBlocks, want.DistinctBlocks)
		}
		if math.Abs(got.ComputeSec-want.ComputeSec) > 1e-6 {
			t.Errorf("%s: compute = %g, want %g", name, got.ComputeSec, want.ComputeSec)
		}
	}
}

func TestGeneratorsValidAndDeterministic(t *testing.T) {
	for _, name := range Names {
		a, _ := ByName(name)
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := ByName(name)
		if len(a.Refs) != len(b.Refs) {
			t.Fatalf("%s: nondeterministic length", name)
		}
		for i := range a.Refs {
			if a.Refs[i] != b.Refs[i] {
				t.Fatalf("%s: nondeterministic ref %d", name, i)
			}
		}
	}
}

func TestCacheSizesPerPaper(t *testing.T) {
	// dinero and cscope1 reference fewer than 1280 distinct blocks; the
	// paper reduces their cache to 512 blocks.
	for _, name := range Names {
		tr, _ := ByName(name)
		want := 1280
		if name == "dinero" || name == "cscope1" {
			want = 512
		}
		if tr.CacheBlocks != want {
			t.Errorf("%s: cache %d, want %d", name, tr.CacheBlocks, want)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown trace should fail")
	}
}

func TestAllOrder(t *testing.T) {
	all := All()
	if len(all) != len(Names) {
		t.Fatalf("All() returned %d traces", len(all))
	}
	for i, tr := range all {
		if tr.Name != Names[i] {
			t.Errorf("All()[%d] = %s, want %s", i, tr.Name, Names[i])
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	orig, _ := ByName("cscope1")
	orig = orig.Truncate(500)
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.PlaceByFile != orig.PlaceByFile || got.CacheBlocks != orig.CacheBlocks {
		t.Fatal("header mismatch")
	}
	if len(got.Files) != len(orig.Files) || len(got.Refs) != len(orig.Refs) {
		t.Fatal("length mismatch")
	}
	for i := range orig.Refs {
		if got.Refs[i].Block != orig.Refs[i].Block {
			t.Fatalf("ref %d block mismatch", i)
		}
		if math.Abs(got.Refs[i].ComputeMs-orig.Refs[i].ComputeMs) > 1e-5 {
			t.Fatalf("ref %d compute mismatch", i)
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"garbage\n",
		"ppctrace x\n",
		"ppctrace x maybe 10\n",
		"ppctrace x true ten\n",
		"ppctrace x true 10\nfile\n",
		"ppctrace x true 10\nfile ten\n",
		"ppctrace x true 10\nfile 1\nr 0\n",
		"ppctrace x true 10\nfile 1\nr zero 1.0\n",
		"ppctrace x true 10\nfile 1\nr 0 fast\n",
		"ppctrace x true 10\nfile 1\nq 0 1\n",
		"ppctrace x true 10\nfile 1\nr 5 1.0\n", // block out of range
		"ppctrace x true 10\n",                  // no files / refs
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error for %q", i, c)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	good := &Trace{
		Name:  "t",
		Refs:  []Ref{{Block: 0, ComputeMs: 1}},
		Files: []layout.File{{First: 0, Blocks: 1}},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Trace{
		{Name: "empty", Files: []layout.File{{First: 0, Blocks: 1}}},
		{Name: "nofiles", Refs: []Ref{{Block: 0}}},
		{Name: "gap", Refs: []Ref{{Block: 0}}, Files: []layout.File{{First: 1, Blocks: 1}}},
		{Name: "zerofile", Refs: []Ref{{Block: 0}}, Files: []layout.File{{First: 0, Blocks: 0}}},
		{Name: "oob", Refs: []Ref{{Block: 5}}, Files: []layout.File{{First: 0, Blocks: 1}}},
		{Name: "negcompute", Refs: []Ref{{Block: 0, ComputeMs: -1}}, Files: []layout.File{{First: 0, Blocks: 1}}},
	}
	for _, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tr.Name)
		}
	}
}

func TestScaleCompute(t *testing.T) {
	tr, _ := ByName("ld")
	half := tr.ScaleCompute(0.5)
	if math.Abs(half.Stats().ComputeSec-tr.Stats().ComputeSec/2) > 1e-9 {
		t.Error("ScaleCompute(0.5) should halve total compute")
	}
	if half.Name != tr.Name || len(half.Refs) != len(tr.Refs) {
		t.Error("ScaleCompute must preserve structure")
	}
	// Original must be untouched.
	want, _ := PaperStats("ld")
	if math.Abs(tr.Stats().ComputeSec-want.ComputeSec) > 1e-6 {
		t.Error("ScaleCompute mutated the original")
	}
}

func TestTruncate(t *testing.T) {
	tr, _ := ByName("synth")
	short := tr.Truncate(100)
	if len(short.Refs) != 100 {
		t.Fatalf("Truncate(100) gave %d refs", len(short.Refs))
	}
	same := tr.Truncate(1 << 30)
	if len(same.Refs) != len(tr.Refs) {
		t.Fatal("Truncate beyond length should keep everything")
	}
}

func TestLayoutsForAllTraces(t *testing.T) {
	for _, name := range Names {
		tr, _ := ByName(name)
		for _, d := range []int{1, 3, 16} {
			l, err := tr.Layout(d, 1)
			if err != nil {
				t.Fatalf("%s d=%d: %v", name, d, err)
			}
			if l.NumBlocks() != tr.NumBlocks() {
				t.Fatalf("%s: layout covers %d blocks, want %d", name, l.NumBlocks(), tr.NumBlocks())
			}
			// Every referenced block must be mapped.
			for _, r := range tr.Refs {
				p := l.Lookup(r.Block)
				if p.Disk < 0 || p.Disk >= d || p.LBN < 0 {
					t.Fatalf("%s: block %d mapped to %+v", name, r.Block, p)
				}
			}
		}
	}
}

// TestAccessPatternShapes spot-checks the qualitative structure the paper
// describes for individual traces.
func TestAccessPatternShapes(t *testing.T) {
	// dinero: one file read sequentially multiple times.
	din, _ := ByName("dinero")
	if len(din.Files) != 1 {
		t.Errorf("dinero should be a single file")
	}
	for i := 0; i < 986*2; i++ {
		if din.Refs[i].Block != layout.BlockID(i%986) {
			t.Fatalf("dinero ref %d = %d, want sequential loop", i, din.Refs[i].Block)
		}
	}

	// glimpse: index blocks (0..246) are accessed far more often than
	// data blocks.
	gl, _ := ByName("glimpse")
	counts := map[bool]int{}
	for _, r := range gl.Refs {
		counts[r.Block < 247]++
	}
	perIndex := float64(counts[true]) / 247
	perData := float64(counts[false]) / 5000
	if perIndex < 10*perData {
		t.Errorf("glimpse index blocks read %.1fx each vs data %.1fx: index should be far hotter", perIndex, perData)
	}

	// cscope3: compute times must be bursty — both ~1ms and ~7ms regimes
	// present in runs.
	cs3, _ := ByName("cscope3")
	var fast, slow int
	for _, r := range cs3.Refs {
		if r.ComputeMs < 2.0 {
			fast++
		}
		if r.ComputeMs > 5.0 {
			slow++
		}
	}
	if fast < len(cs3.Refs)/3 || slow < len(cs3.Refs)/20 {
		t.Errorf("cscope3 compute not bursty: fast=%d slow=%d of %d", fast, slow, len(cs3.Refs))
	}

	// synth: 50 sequential passes over 2000 blocks.
	sy, _ := ByName("synth")
	for i, r := range sy.Refs {
		if r.Block != layout.BlockID(i%2000) {
			t.Fatalf("synth ref %d = %d, want %d", i, r.Block, i%2000)
		}
	}

	// postgres-select: data blocks are visited at most once each (2%
	// selection via a non-clustered index), in scattered physical order.
	ps, _ := ByName("postgres-select")
	seenData := map[layout.BlockID]bool{}
	ascending := 0
	last := layout.BlockID(-1)
	for _, r := range ps.Refs {
		if r.Block >= 85 { // data space starts after the index
			if seenData[r.Block] {
				t.Fatal("postgres-select data block re-read")
			}
			seenData[r.Block] = true
			if r.Block > last {
				ascending++
			}
			last = r.Block
		}
	}
	if ascending > len(seenData)*3/4 {
		t.Errorf("postgres-select data order too sequential: %d/%d ascending steps", ascending, len(seenData))
	}
}

func TestNumBlocks(t *testing.T) {
	tr, _ := ByName("postgres-join")
	if tr.NumBlocks() != 410+100+4096 {
		t.Errorf("postgres-join block space = %d", tr.NumBlocks())
	}
}
