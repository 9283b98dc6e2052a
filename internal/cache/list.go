package cache

import "ppcsim/internal/layout"

// List is an intrusive doubly linked list of blocks, least recently
// pushed at the front: O(1) push-back and removal, and a walk from the
// front. Every member of every list in the simulator holds a buffer, so
// the nodes come from a pool of capacity entries; the only per-block
// cost is one node index.
type List struct {
	node []listNode // node 0 is the sentinel: its next is the front, its prev the back
	at   []int32    // per block: its node's index, 0 when not a member
	free int32      // first released node, chained through next; 0 if none
}

// listNode links one member block.
type listNode struct {
	block      layout.BlockID
	prev, next int32
}

// NewList returns an empty list of at most capacity members drawn from
// the block IDs [0, nBlocks).
func NewList(capacity, nBlocks int) List {
	node := make([]listNode, 1, capacity+1)
	node[0].block = NoBlock
	return List{node: node, at: make([]int32, nBlocks)}
}

// Contains reports whether b is a member.
func (l *List) Contains(b layout.BlockID) bool { return l.at[b] != 0 }

// Front returns the least recently pushed member, or NoBlock.
func (l *List) Front() layout.BlockID { return l.node[l.node[0].next].block }

// Next returns the member pushed after b, a member, or NoBlock.
func (l *List) Next(b layout.BlockID) layout.BlockID { return l.node[l.node[l.at[b]].next].block }

// PushBack appends b, which must not be a member. Pushing more members
// than the capacity panics.
//
//ppcvet:hotpath
func (l *List) PushBack(b layout.BlockID) {
	i := l.free
	if i != 0 {
		l.free = l.node[i].next
	} else {
		i = int32(len(l.node))
		l.node = l.node[:i+1]
	}
	back := l.node[0].prev
	l.node[i] = listNode{block: b, prev: back}
	l.node[back].next = i
	l.node[0].prev = i
	l.at[b] = i
}

// Remove unlinks b if it is a member.
//
//ppcvet:hotpath
func (l *List) Remove(b layout.BlockID) {
	i := l.at[b]
	if i == 0 {
		return
	}
	l.at[b] = 0
	p, n := l.node[i].prev, l.node[i].next
	l.node[p].next = n
	l.node[n].prev = p
	l.node[i].next = l.free
	l.free = i
}
