// Package bad exercises every hotalloc diagnostic inside annotated
// functions.
package bad

import (
	"container/heap"
	"fmt"
)

// Decode is a hot frame decoder that allocates per reference.
//
//ppcvet:hotpath
func Decode(ids []uint64) []string {
	names := []string{}
	for _, id := range ids {
		m := make(map[string]int) // want `map allocated per loop iteration in a hot path`
		m["n"] = int(id)
		lit := map[uint64]bool{id: true} // want `map composite literal allocates per loop iteration in a hot path`
		_ = lit
		names = append(names, fmt.Sprintf("ref-%d", id)) // want `fmt\.Sprintf allocates in a hot path` `append grows names per iteration but it was declared without capacity`
	}
	return names
}

// Label formats outside any loop; Sprintf is banned anywhere hot.
//
//ppcvet:hotpath
func Label(id uint64) string {
	return fmt.Sprintf("ref-%d", id) // want `fmt\.Sprintf allocates in a hot path`
}

// Box converts to an interface per element.
//
//ppcvet:hotpath
func Box(vals []int) []any {
	out := make([]any, 0, len(vals))
	for _, v := range vals {
		out = append(out, any(v)) // want `conversion to interface type boxes the value per loop iteration in a hot path`
	}
	return out
}

// GrowVar starts from a nil slice declared with var.
//
//ppcvet:hotpath
func GrowVar(vals []int) []int {
	var doubled []int
	for _, v := range vals {
		doubled = append(doubled, v*2) // want `append grows doubled per iteration but it was declared without capacity`
	}
	return doubled
}

// GrowMakeNoCap uses the two-argument make, which sizes the length but
// reserves nothing for growth.
//
//ppcvet:hotpath
func GrowMakeNoCap(vals []int) []int {
	acc := make([]int, 0)
	for _, v := range vals {
		acc = append(acc, v) // want `append grows acc per iteration but it was declared without capacity`
	}
	return acc
}

type entry struct{ block, used int32 }

// Track pushes one entry per reference: heap.Push takes an any, so every
// entry is boxed on the heap.
//
//ppcvet:hotpath
func Track(h heap.Interface, blocks []int32) {
	for i, b := range blocks {
		heap.Push(h, entry{b, int32(i)}) // want `passing a non-pointer bad\.entry to an interface parameter boxes it per loop iteration in a hot path`
	}
}

// Log hands each value to a variadic ...any parameter.
//
//ppcvet:hotpath
func Log(vals []int) {
	for _, v := range vals {
		record("value", v) // want `passing a non-pointer int to an interface parameter boxes it per loop iteration in a hot path`
	}
}

func record(string, ...any) {}
