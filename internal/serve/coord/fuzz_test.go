package coord

import (
	"errors"
	"testing"

	"ppcsim"
)

// FuzzParseJobSpec hammers the /v1/jobs decoder: arbitrary bytes must
// never panic, every rejection must be a *ppcsim.ConfigError naming a
// field, and anything accepted must expand deterministically into a
// bounded, well-formed cell list whose every cell passes the single-run
// boundary.
func FuzzParseJobSpec(f *testing.F) {
	f.Add([]byte(`{"trace":"synth","algorithms":["demand","aggressive"],"disk_counts":[1,2],"cache_sizes":[16,32]}`))
	f.Add([]byte(`{"trace":"synth","algorithm":"demand"}`))
	f.Add([]byte(`{"trace_text":"ppctrace t false 4\nfile 4\nr 0 0.1\n","algorithms":["demand"],"windows":[4]}`))
	f.Add([]byte(`{"trace":"synth","algorithms":["demand"],"timeout_ms":-3}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"trace":"synth","algorithms":["demand"],"bogus":true}`))
	f.Add([]byte(`{"trace":"synth","algorithms":["demand"]} trailing`))
	f.Add([]byte(`{"trace_spec":{"refs":1000,"blocks":64},"algorithms":["demand","reverse-aggressive"],"window":32}`))
	f.Add([]byte(`{"trace_spec":{"refs":1000,"blocks":64},"algorithm":"demand","windows":[32,5000]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := ParseJobSpec(body)
		if err != nil {
			var ce *ppcsim.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("rejection is not a ConfigError: %T %v", err, err)
			}
			if ce.Field == "" {
				t.Fatalf("ConfigError without a field: %v", err)
			}
			return
		}
		cells, err := spec.Cells(1024)
		if err != nil {
			var ce *ppcsim.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("expansion rejection is not a ConfigError: %T %v", err, err)
			}
			return
		}
		if len(cells) == 0 {
			t.Fatal("accepted spec expanded to zero cells")
		}
		again, err := spec.Cells(1024)
		if err != nil || len(again) != len(cells) {
			t.Fatalf("re-expansion disagrees: %d vs %d cells, err %v", len(cells), len(again), err)
		}
		for i, c := range cells {
			if c.Index != i {
				t.Fatalf("cell %d has Index %d", i, c.Index)
			}
			if c.Key == "" || c.Key != c.Spec.Key() || c.Key != again[i].Key {
				t.Fatalf("cell %d key unstable or empty", i)
			}
			if err := c.Spec.Validate(); err != nil {
				t.Fatalf("accepted cell %d fails the single-run boundary: %v", i, err)
			}
		}
		if JobKey(cells) != JobKey(again) {
			t.Fatal("job key unstable across expansions")
		}
	})
}
