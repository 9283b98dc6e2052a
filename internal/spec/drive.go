package spec

// Queued is one request waiting at a drive: its logical block number and
// its arrival order.
type Queued struct{ LBN, Seq int64 }

// DrivePick is the order in which a drive serves its queue: the index in
// q (which must not be empty) of the request it starts next with its
// head over block head. FCFS takes the earliest arrival. CSCAN takes the
// smallest (LBN, arrival) at or past the head, so the head sweeps up the
// disk, and wraps to the smallest of all when none is.
func DrivePick(q []Queued, head int64, fcfs bool) int {
	before := func(a, b Queued) bool {
		if fcfs {
			return a.Seq < b.Seq
		}
		return a.LBN < b.LBN || a.LBN == b.LBN && a.Seq < b.Seq
	}
	best, wrap := -1, -1
	for i, r := range q {
		if (fcfs || r.LBN >= head) && (best < 0 || before(r, q[best])) {
			best = i
		}
		if wrap < 0 || before(r, q[wrap]) {
			wrap = i
		}
	}
	if best < 0 {
		return wrap
	}
	return best
}
