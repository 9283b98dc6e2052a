package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"testing"

	"ppcsim/internal/layout"
)

// hostileNames are trace names that break naive header formatting: the
// Write/Read round trip must survive all of them.
var hostileNames = []string{
	"plain",
	"my trace",
	"tab\tname",
	"line\nbreak",
	"trailing ",
	" leading",
	`quo"ted`,
	`"quoted-looking"`,
	"",
	"uni códe ☃",
	"\x00control",
}

// genTestTrace builds a deterministic trace exercising every encoder
// feature: multiple files, zero-compute refs, write refs, repeats.
func genTestTrace(name string, refs int) *Trace {
	t := &Trace{
		Name: name,
		Files: []layout.File{
			{First: 0, Blocks: 7},
			{First: 7, Blocks: 13},
			{First: 20, Blocks: 12},
		},
		PlaceByFile: true,
		CacheBlocks: 64,
	}
	for i := 0; i < refs; i++ {
		r := Ref{Block: layout.BlockID((i * 11) % 32)}
		switch i % 5 {
		case 0:
			r.ComputeMs = 0 // exact zero must survive
		case 1:
			r.ComputeMs = 0.25
		case 2:
			r.ComputeMs = float64(i) * 0.001
		case 3:
			r.ComputeMs = 1e-12
		default:
			r.ComputeMs = 17.5
			r.Write = true
		}
		t.Refs = append(t.Refs, r)
	}
	return t
}

// TestWriteReadRoundTrip is the Write->Read property test over hostile
// names and ref shapes: the parsed trace must equal the original exactly.
func TestWriteReadRoundTrip(t *testing.T) {
	for _, name := range hostileNames {
		tr := genTestTrace(name, 137)
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("%q: Write: %v", name, err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("%q: Read: %v", name, err)
		}
		if back.Name != tr.Name {
			t.Fatalf("name %q round-tripped to %q", tr.Name, back.Name)
		}
		if back.PlaceByFile != tr.PlaceByFile || back.CacheBlocks != tr.CacheBlocks {
			t.Fatalf("%q: header fields changed", name)
		}
		if !reflect.DeepEqual(back.Files, tr.Files) {
			t.Fatalf("%q: files changed", name)
		}
		if len(back.Refs) != len(tr.Refs) {
			t.Fatalf("%q: %d refs became %d", name, len(tr.Refs), len(back.Refs))
		}
		for i, r := range tr.Refs {
			b := back.Refs[i]
			if b.Block != r.Block || b.Write != r.Write {
				t.Fatalf("%q: ref %d changed: %+v vs %+v", name, i, b, r)
			}
			// The text format prints %.6f, so compute only survives to 1e-6.
			if math.Abs(b.ComputeMs-r.ComputeMs) > 1e-6 {
				t.Fatalf("%q: ref %d compute %g became %g", name, i, r.ComputeMs, b.ComputeMs)
			}
		}
	}
}

// TestReadLegacyHeader keeps the unquoted header form parseable: traces
// written before name quoting must still load.
func TestReadLegacyHeader(t *testing.T) {
	in := "ppctrace oldname true 16\nfile 4\nr 0 1.0\nr 3 0.25\n"
	tr, err := Read(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "oldname" || !tr.PlaceByFile || tr.CacheBlocks != 16 {
		t.Fatalf("legacy header parsed as %+v", tr)
	}
}

// TestValidateRejectsNonFinite pins the NaN/Inf bugfix: Validate and Read
// must both reject non-finite compute times and overflowing totals.
func TestValidateRejectsNonFinite(t *testing.T) {
	base := func() *Trace {
		return &Trace{
			Name:  "t",
			Files: []layout.File{{First: 0, Blocks: 4}},
			Refs:  []Ref{{Block: 0, ComputeMs: 1}, {Block: 1, ComputeMs: 2}},
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		tr := base()
		tr.Refs[1].ComputeMs = bad
		if err := tr.Validate(); err == nil {
			t.Errorf("Validate accepted compute %g", bad)
		}
	}
	// A pair of half-max values overflows the total without either being
	// individually infinite.
	tr := base()
	tr.Refs[0].ComputeMs = math.MaxFloat64
	tr.Refs[1].ComputeMs = math.MaxFloat64
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted an overflowing compute total")
	}
	for _, in := range []string{
		"ppctrace t false 16\nfile 4\nr 0 NaN\n",
		"ppctrace t false 16\nfile 4\nr 0 Inf\n",
		"ppctrace t false 16\nfile 4\nr 0 -Inf\n",
	} {
		if _, err := Read(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("Read accepted %q", in)
		}
	}
}

// TestTruncateNegative pins the negative-n clamp.
func TestTruncateNegative(t *testing.T) {
	tr := genTestTrace("t", 10)
	got := tr.Truncate(-3)
	if len(got.Refs) != 0 {
		t.Fatalf("Truncate(-3) kept %d refs", len(got.Refs))
	}
	if got := tr.Truncate(4); len(got.Refs) != 4 {
		t.Fatalf("Truncate(4) kept %d refs", len(got.Refs))
	}
}

// TestColumnarRoundTrip: encode -> decode must reproduce the trace
// bit-exactly (the binary format stores float64 bits, so unlike the text
// format there is no precision loss), through the streaming source and
// through Materialize, twice to cover Reset.
func TestColumnarRoundTrip(t *testing.T) {
	for _, refs := range []int{1, 100, frameRefs, frameRefs + 1, 3*frameRefs + 17} {
		tr := genTestTrace("columnar round trip", refs)
		var buf bytes.Buffer
		n, err := WriteColumnar(&buf, tr.Source())
		if err != nil {
			t.Fatalf("refs=%d: WriteColumnar: %v", refs, err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("refs=%d: reported %d bytes, wrote %d", refs, n, buf.Len())
		}
		if !IsColumnar(buf.Bytes()) {
			t.Fatalf("refs=%d: output does not sniff as columnar", refs)
		}
		src, err := NewColumnarSource(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("refs=%d: NewColumnarSource: %v", refs, err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := Materialize(src)
			if err != nil {
				t.Fatalf("refs=%d pass %d: Materialize: %v", refs, pass, err)
			}
			if !reflect.DeepEqual(got, tr) {
				t.Fatalf("refs=%d pass %d: streamed trace differs", refs, pass)
			}
		}

		info, err := InspectColumnar(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("refs=%d: InspectColumnar: %v", refs, err)
		}
		wantFrames := (refs + frameRefs - 1) / frameRefs
		if info.Frames != wantFrames || info.Meta.Refs != int64(refs) {
			t.Fatalf("refs=%d: inspect reports %d frames / %d refs, want %d / %d",
				refs, info.Frames, info.Meta.Refs, wantFrames, refs)
		}
	}
}

// TestColumnarRejectsTruncation: every prefix of a valid file must fail
// cleanly (no panic, no silent short trace).
func TestColumnarRejectsTruncation(t *testing.T) {
	tr := genTestTrace("trunc", 500)
	var buf bytes.Buffer
	if _, err := WriteColumnar(&buf, tr.Source()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 1, 7, 8, 20, len(data) / 2, len(data) - 30} {
		if _, err := readColumnar(data[:cut]); err == nil {
			t.Errorf("columnar reader accepted a %d-byte prefix of a %d-byte file", cut, len(data))
		}
	}
}

// readColumnar opens data through the one columnar reader and
// materializes it.
func readColumnar(data []byte) (*Trace, error) {
	src, err := NewColumnarSource(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return Materialize(src)
}

// columnarHeader is the columnar header of an unnamed trace of one
// two-block file whose reference count claims refs.
func columnarHeader(refs uint64) []byte {
	b := []byte(columnarMagic)
	b = binary.AppendUvarint(b, 0) // name length
	b = append(b, 0)               // placeByFile
	b = binary.AppendUvarint(b, 1) // cacheBlocks
	b = binary.AppendUvarint(b, 1) // file count
	b = binary.AppendUvarint(b, 2) // file 0 blocks
	return binary.AppendUvarint(b, refs)
}

// TestColumnarRejectsOverclaim: a header that claims more references
// than the bytes after it can encode fails at open, before anything is
// sized from the claim, while the densest valid encoding (identical
// zero-compute references, two payload bytes each) still opens.
func TestColumnarRejectsOverclaim(t *testing.T) {
	const n = 3*frameRefs + 5
	dense := &Trace{Files: []layout.File{{First: 0, Blocks: 2}}, CacheBlocks: 1, Refs: make([]Ref, n)}
	var buf bytes.Buffer
	if _, err := WriteColumnar(&buf, dense.Source()); err != nil {
		t.Fatal(err)
	}
	hdr := columnarHeader(n)
	if !bytes.HasPrefix(buf.Bytes(), hdr) {
		t.Fatal("columnarHeader no longer matches the encoder's header")
	}
	body := buf.Len() - len(hdr)
	if body >= 2*n+64 {
		t.Fatalf("%d identical references took %d bytes; no longer the densest encoding", n, body)
	}
	back, err := readColumnar(buf.Bytes())
	if err != nil {
		t.Fatalf("densest valid encoding rejected: %v", err)
	}
	if !reflect.DeepEqual(back, dense) {
		t.Fatal("densest encoding round trip changed the trace")
	}

	tight := append(columnarHeader(uint64(body/2+1)), buf.Bytes()[len(hdr):]...)
	if _, err := NewColumnarSource(bytes.NewReader(tight)); err == nil {
		t.Errorf("a claim of %d references over %d bytes opened", body/2+1, body)
	}
	for _, claim := range []uint64{1 << 26, 1 << 50, math.MaxInt64} {
		hostile := append(columnarHeader(claim), make([]byte, 100)...)
		if _, err := NewColumnarSource(bytes.NewReader(hostile)); err == nil {
			t.Errorf("a claim of %d references over 100 bytes opened", claim)
		}
	}
}

// TestTraceSource pins the slice-backed source: short destination
// buffers, EOF-with-data, and Reset.
func TestTraceSource(t *testing.T) {
	tr := genTestTrace("src", 10)
	src := tr.Source()
	if m := src.Meta(); m.Refs != 10 || m.NumBlocks() != 32 {
		t.Fatalf("meta = %+v", m)
	}
	var got []Ref
	buf := make([]Ref, 3)
	for {
		n, err := src.ReadRefs(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, tr.Refs) {
		t.Fatal("streamed refs differ from the slice")
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	back, err := Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Refs, tr.Refs) {
		t.Fatal("materialized refs differ after Reset")
	}
}

// TestLargeSpecSource pins the streaming generator: deterministic across
// Reset, correct count, blocks in range, finite compute.
func TestLargeSpecSource(t *testing.T) {
	for _, pattern := range []string{"loop", "zipf"} {
		spec := LargeSpec{Refs: 50000, Blocks: 1000, Files: 7, Pattern: pattern, Seed: 3}
		src, err := spec.Source()
		if err != nil {
			t.Fatal(err)
		}
		a, err := Materialize(src)
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		b, err := Materialize(src)
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: generator is not deterministic across Reset", pattern)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: generated trace invalid: %v", pattern, err)
		}
		if len(a.Refs) != 50000 {
			t.Fatalf("%s: generated %d refs", pattern, len(a.Refs))
		}
	}
	if _, err := (LargeSpec{Refs: 0, Blocks: 10}).Source(); err == nil {
		t.Error("zero-ref spec accepted")
	}
	if _, err := (LargeSpec{Refs: 10, Blocks: 1}).Source(); err == nil {
		t.Error("one-block spec accepted")
	}
	if _, err := (LargeSpec{Refs: 10, Blocks: 10, Pattern: "bogus"}).Source(); err == nil {
		t.Error("unknown pattern accepted")
	}
}

// FuzzReadColumnar checks the columnar reader never panics and that
// anything it accepts round-trips through the encoder bit-exactly.
func FuzzReadColumnar(f *testing.F) {
	// Seed with real encodings of varied shapes plus near-miss corruptions.
	for _, refs := range []int{1, 64, frameRefs + 3} {
		tr := genTestTrace("seed", refs)
		var buf bytes.Buffer
		if _, err := WriteColumnar(&buf, tr.Source()); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		data := append([]byte(nil), buf.Bytes()...)
		data[len(data)/2] ^= 0xff
		f.Add(data)
		f.Add(data[:len(data)/3])
	}
	f.Add([]byte(columnarMagic))
	f.Add([]byte("garbage"))
	f.Add(append(columnarHeader(1<<50), make([]byte, 64)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := readColumnar(in)
		if err != nil {
			return
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("columnar reader accepted an invalid trace: %v", verr)
		}
		var buf bytes.Buffer
		if _, werr := WriteColumnar(&buf, tr.Source()); werr != nil {
			t.Fatalf("WriteColumnar failed on accepted trace: %v", werr)
		}
		back, rerr := readColumnar(buf.Bytes())
		if rerr != nil {
			t.Fatalf("re-read failed: %v", rerr)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatal("round trip changed the trace")
		}
	})
}
