package future

// chains threads ascending positions into per-group linked lists through
// a ring of slots: position p lives in slot p&mask, whose link names the
// next position pushed to the same group. The oracle groups positions by
// block, the disk index by disk.
//
// An unwrapped ring (mask -1, one slot per position) holds a whole
// sequence pushed once at setup. A sliding ring (a power-of-two number of
// slots) holds a window: positions are pushed as they are disclosed and
// popped as they are consumed, and a slot is reused once its position has
// been popped. Both are the same lists, so a query over a window that has
// been pushed past its horizon answers exactly as over the whole
// sequence.
type chains struct {
	link []int32 // per slot: the group's next pushed position, or -1
	mask int
	head []int32 // per group: first unpopped position, or -1
	tail []int32 // per group: last pushed position (stale once head is -1)
}

// newChains returns empty chains for groups groups over slots slots:
// unwrapped, or a sliding ring when sliding is set (slots must then be a
// power of two greater than the most positions pushed but not popped).
func newChains(groups, slots int, sliding bool) chains {
	c := chains{link: make([]int32, slots), mask: -1, head: make([]int32, groups), tail: make([]int32, groups)}
	if sliding {
		if slots <= 0 || slots&(slots-1) != 0 {
			panic("future: ring capacity must be a power of two")
		}
		c.mask = slots - 1
	}
	for g := range c.head {
		c.head[g] = -1
	}
	return c
}

// push appends position p, greater than every position pushed before,
// to group g.
//
//ppcvet:hotpath
func (c *chains) push(p, g int) {
	c.link[p&c.mask] = -1
	if c.head[g] < 0 {
		// Empty chain: any recorded tail has been popped, and its slot
		// may hold another group's position now, so start afresh.
		c.head[g] = int32(p)
	} else {
		c.link[int(c.tail[g])&c.mask] = int32(p)
	}
	c.tail[g] = int32(p)
}

// pop removes position p from group g once it has been consumed.
// Positions are consumed in ascending order, so p is the group's head
// whenever it was pushed at all.
//
//ppcvet:hotpath
func (c *chains) pop(p, g int) {
	if int(c.head[g]) == p {
		c.head[g] = c.link[p&c.mask]
	}
}

// after returns the position pushed to p's group after p, or Never. p
// must be pushed and not yet popped: a sliding ring reuses its slot.
func (c *chains) after(p int) int {
	if nx := c.link[p&c.mask]; nx >= 0 {
		return int(nx)
	}
	return Never
}

// first returns group g's first unpopped position, or Never.
func (c *chains) first(g int) int {
	if h := c.head[g]; h >= 0 {
		return int(h)
	}
	return Never
}
