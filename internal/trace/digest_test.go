package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"testing"
)

// TestTraceDigests pins a SHA-256 of each bundled trace and of a
// 100,000-ref LargeSpec stream per pattern. The generators reach math.Exp
// and math.Log through rand.ExpFloat64 and rand.Zipf, and those are
// assembly on some architectures but not others, so a last-bit
// difference between architectures fails here, at its source, before it
// moves any simulated number.
func TestTraceDigests(t *testing.T) {
	want := map[string]string{
		"dinero":          "1cf0be24e6c29640cf51e56000115735b1a600f444a7ede80143acb62d2c5f75",
		"cscope1":         "64cf3de49aaadb537c972f581d8f6be9c2e303dfce0c765fdf16c0cd5e6bfaa7",
		"cscope2":         "284a7225eab38e88f5b5282a56bc48d34a6c8537acab5435497c6597f3bad75f",
		"cscope3":         "270b5b37b6dcda64d78df7ca96beecf29ba19215d4e1d3ba50fdec342931de42",
		"glimpse":         "8551ee5a6894a8aa3ef566de12ac6fcca0a9274495cbc49e249426053e5981b0",
		"ld":              "f19e7d7c199d5c2db0bb246c447098e4db0120a87ffe6c083adb4c02dabe0ccf",
		"postgres-join":   "14eec623e9c721839c04187b5b7f51876df83667e966b914c05394ae068af035",
		"postgres-select": "50e4864464ab6646ce648b54f7f19d8dc9263e76dda4eae180d75946dc09bfa8",
		"xds":             "8fd57ac34a3557439229e62006fea1a27c1cdf1f6f45b3cf38f938d97c5d104c",
		"synth":           "ba6a6bf51e711fcae702903d21c5df27e8b036d85a2b477fc7cea5f3b1269852",
		"large-loop":      "38627d2a9af3b96a3aeb5771332f87801e65f72837b19eac7522e19e56424ee8",
		"large-zipf":      "74e215c43414aa023386eca5288be1910c3d8fb3589844f377334c5d19c6563c",
	}
	got := map[string]string{}
	for _, name := range Names {
		tr, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = sourceDigest(t, tr.Source())
	}
	for _, pattern := range []string{"loop", "zipf"} {
		src, err := LargeSpec{Refs: 100000, Blocks: 8192, Pattern: pattern, Seed: 7}.Source()
		if err != nil {
			t.Fatal(err)
		}
		got["large-"+pattern] = sourceDigest(t, src)
	}
	if len(got) != len(want) {
		t.Errorf("hashed %d traces, want %d", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %s, want %s", name, got[name], w)
		}
	}
}

// sourceDigest hashes the file table, placement rule and default cache
// size of src, then the block ID, compute-time bits and write flag of
// every ref, each as a little-endian uint64.
func sourceDigest(t *testing.T, src Source) string {
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	m := src.Meta()
	put(uint64(len(m.Files)))
	for _, f := range m.Files {
		put(uint64(f.First))
		put(uint64(f.Blocks))
	}
	put(flag(m.PlaceByFile))
	put(uint64(m.CacheBlocks))
	buf := make([]Ref, 4096)
	for {
		n, err := src.ReadRefs(buf)
		for _, r := range buf[:n] {
			put(uint64(r.Block))
			put(math.Float64bits(r.ComputeMs))
			put(flag(r.Write))
		}
		if err == io.EOF {
			return hex.EncodeToString(h.Sum(nil))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
