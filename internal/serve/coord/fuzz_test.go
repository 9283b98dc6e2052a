package coord

import (
	"errors"
	"testing"

	"ppcsim"
)

// FuzzParseJobSpec hammers the /v1/jobs decoder: arbitrary bytes must
// never panic, every rejection must be a *ppcsim.ConfigError naming a
// field, and anything accepted must expand deterministically into a
// bounded, well-formed cell list, one cell per point of the axes' cross
// product, whose every cell passes the single-run boundary.
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
	f.Add([]byte(`{"traces":["xds","ld"],"algorithms":["demand"],"schedulers":["cscan","fcfs"],"batch_sizes":[0,8],"horizons":[20,40,60]}`))
	f.Add([]byte(`{"traces":["xds"],"trace":"ld","algorithm":"demand"}`))
	f.Add([]byte(`{"traces":["xds"],"trace_text":"ppctrace t false 4\nfile 4\nr 0 0.1\n","algorithm":"demand"}`))
	f.Add([]byte(`{"traces":["xds"],"trace_spec":{"refs":1000},"algorithm":"demand"}`))
	f.Add([]byte(`{"traces":["xds"],"trace_hash":"0000000000000000000000000000000000000000000000000000000000000000","algorithm":"demand"}`))
	f.Add([]byte(`{"trace":"xds","algorithm":"demand","scheduler":"fcfs","schedulers":["fcfs"]}`))
	f.Add([]byte(`{"trace":"xds","algorithm":"demand","batch_size":4,"batch_sizes":[4]}`))
	f.Add([]byte(`{"trace":"xds","algorithm":"demand","horizon":9,"horizons":[9]}`))
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
		want := max(1, len(spec.Algorithms))
		for _, n := range []int{len(spec.Traces), len(spec.DiskCounts), len(spec.Schedulers), len(spec.CacheSizes),
			len(spec.Windows), len(spec.BatchSizes), len(spec.Horizons)} {
			want *= max(1, n)
		}
		if len(cells) != want {
			t.Fatalf("accepted spec expanded to %d cells, want the axes' product %d", len(cells), want)
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
