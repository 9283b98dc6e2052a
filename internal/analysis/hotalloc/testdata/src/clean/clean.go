// Package clean holds the allocation shapes hotalloc must accept: hot
// functions that preallocate and reuse, and unannotated cold functions
// free to allocate however they like.
package clean

import (
	"fmt"
	"strconv"
)

// Decode preallocates its output, reuses one scratch buffer, and keeps
// its map outside the loop — the shape the frame decoder should have.
//
//ppcvet:hotpath
func Decode(ids []uint64) []string {
	names := make([]string, 0, len(ids))
	buf := make([]byte, 0, 32)
	counts := map[uint64]int{}
	for _, id := range ids {
		buf = strconv.AppendUint(buf[:0], id, 10)
		names = append(names, string(buf))
		counts[id]++
	}
	return names
}

// Sized appends into a capacity-reserving slice; growth never copies.
//
//ppcvet:hotpath
func Sized(vals []int) []int {
	out := make([]int, 0, len(vals))
	for _, v := range vals {
		out = append(out, v)
	}
	return out
}

// GrowOutsideLoop may append to an unsized slice — once, not per
// iteration.
//
//ppcvet:hotpath
func GrowOutsideLoop(v int) []int {
	var out []int
	out = append(out, v)
	return out
}

// NotHot carries every pattern the bad fixture flags, with no
// annotation: hotalloc must stay silent on cold paths.
func NotHot(ids []uint64) []string {
	out := []string{}
	for _, id := range ids {
		m := make(map[string]int)
		m["n"] = int(id)
		out = append(out, fmt.Sprintf("ref-%d", id))
	}
	return out
}

type entry struct{ block, used int32 }

// Pass boxes nothing per iteration: a pointer, a constant, nil and an
// interface value need no copy, the struct is boxed once before the
// loop, and the error is built in a return, which runs once per call.
//
//ppcvet:hotpath
func Pass(es []entry, vals []any) error {
	record(es[0])
	for i := range es {
		record(&es[i], 7, nil, vals[i])
		if es[i].used < 0 {
			return fmt.Errorf("entry %d has negative use %d", i, es[i].used)
		}
	}
	return nil
}

func record(...any) {}
