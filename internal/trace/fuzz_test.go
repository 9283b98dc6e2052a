package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ppcsim/internal/spec"
)

// FuzzParseTrace checks the trace parser never panics, that it reads
// every input as spec.ReadText's line rule does (the same accept or
// reject, the same error string, the same Trace), and that anything it
// accepts is valid and round-trips. Seed inputs live both here and in
// testdata/fuzz/FuzzParseTrace, so `go test` replays the corpus and the
// CI fuzz smoke extends it.
func FuzzParseTrace(f *testing.F) {
	f.Add("ppctrace t true 16\nfile 4\nr 0 1.0\nr 3 0.25\nw 1 0.5\n")
	f.Add("ppctrace x false 2\nfile 1\nr 0 0\n")
	f.Add("")
	f.Add("garbage")
	f.Add("ppctrace a true 10\nfile 0\n")
	f.Add("ppctrace a true 10\nfile 2\nr 5 1\n")
	// Every ASCII separator strings.Fields accepts, CRLF line ends and
	// trailing spaces.
	f.Add("ppctrace t\vtrue\f16 \r\nfile\t4 \r\n\vr 0\f1.0\t\r\nw  1   0.5   \r\n\r\n")
	f.Add("ppctrace\tt true 16\nfile 4\n")
	f.Add("ppctrace \"a b\"\ttrue 4\r\nfile 2\r\nr 1 0.5 \r\n")
	// U+0085 and U+00A0 separate fields; U+200B does not.
	f.Add("ppctrace t false\u00854\nfile\u00852\nr 1\u00a00.5\u00a0\n\u0085\u00a0\nw\u00a0\u00851 0.5\n")
	f.Add("ppctrace t false 4\nfile 2\nr 1\u200b 0.5\n")
	// Invalid UTF-8 is a field byte, never a separator.
	f.Add("ppctrace t false 4\nfile 2\nr 1\xff 0.5\n")
	f.Add("ppctrace t\xc2 false 4\nfile 2\nr\xa0 1 0.5\n")
	f.Add("ppctrace \xe2\x80 false 4\nfile 2\nr 1 0.5\xc2\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Read(strings.NewReader(in))
		want, werr := specRead(in)
		switch {
		case (err == nil) != (werr == nil):
			t.Fatalf("Read error %v, spec.ReadText error %v", err, werr)
		case err != nil && err.Error() != werr.Error():
			t.Fatalf("Read error %q, spec.ReadText error %q", err, werr)
		case err != nil:
			return
		case !reflect.DeepEqual(tr, want):
			t.Fatalf("Read gave %+v, spec.ReadText %+v", tr, want)
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("Read accepted an invalid trace: %v", verr)
		}
		var buf bytes.Buffer
		if werr := tr.Write(&buf); werr != nil {
			t.Fatalf("Write failed on accepted trace: %v", werr)
		}
		back, rerr := Read(&buf)
		if rerr != nil {
			t.Fatalf("round-trip Read failed: %v", rerr)
		}
		if len(back.Refs) != len(tr.Refs) || len(back.Files) != len(tr.Files) {
			t.Fatal("round trip changed the trace shape")
		}
	})
}

// specRead is Read restated on spec.ReadText: the line rule, then the
// same Validate.
func specRead(in string) (*Trace, error) {
	st, err := spec.ReadText(strings.NewReader(in))
	if err != nil {
		return nil, err
	}
	tr := &Trace{Name: st.Name, PlaceByFile: st.PlaceByFile, CacheBlocks: st.CacheBlocks, Files: st.Files}
	for _, r := range st.Refs {
		tr.Refs = append(tr.Refs, Ref{Block: r.Block, ComputeMs: r.ComputeMs, Write: r.Write})
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
