package cpu

import "math/bits"

// slotTable enforces a per-cycle bandwidth limit (issue width, L1-D load
// ports) for a stream of requests in no particular cycle order, without a
// cycle-by-cycle loop. reserve(at) returns the first cycle >= at with a
// free slot and consumes it. The table is a hash-free direct-mapped window
// over recent cycles; a collision with a *future* reservation (rare, and
// only possible across > window cycles of skew) is treated as free, which
// can only under-count bandwidth pressure slightly.
type slotTable struct {
	width uint32
	mask  uint64 // window-1; the window is a power of two so % becomes &
	slots []slot
}

// slot is one window entry: the cycle it last granted and how many grants
// that cycle has had. Cycle and count share a cache line.
type slot struct {
	cyc uint64
	cnt uint32
}

func newSlotTable(width int) *slotTable {
	const window = 8192 // must stay a power of two (mask indexing)
	return &slotTable{width: uint32(width), mask: window - 1, slots: make([]slot, window)}
}

func (s *slotTable) reserve(at uint64) uint64 {
	for {
		sl := &s.slots[at&s.mask]
		switch {
		case sl.cyc != at:
			if sl.cyc > at {
				// Future reservation occupies this index; treat as free.
				return at
			}
			sl.cyc, sl.cnt = at, 1
			return at
		case sl.cnt < s.width:
			sl.cnt++
			return at
		default:
			at++
		}
	}
}

// slotReg is a bandwidth limit for a monotone request stream, where no
// request asks for a cycle before the previous one did (fetch, commit, the
// L1-D store port fed at commit). For such a stream every cycle between
// the last request and the last grant is already full, so the last grant
// and its count are all the state a slotTable would consult: reserve gives
// exactly the slotTable's answer in O(1) and without the window.
type slotReg struct {
	width, cyc, cnt uint64
}

func newSlotReg(width int) slotReg { return slotReg{width: uint64(width)} }

// reserve returns the first cycle >= at with a free slot and consumes it.
// at must not precede the previous call's at.
func (s *slotReg) reserve(at uint64) uint64 {
	if at <= s.cyc {
		if s.cnt < s.width {
			s.cnt++
			return s.cyc
		}
		at = s.cyc + 1
	}
	s.cyc, s.cnt = at, 1
	return at
}

// ring tracks the completion cycles of the last N entries of a FIFO-freed
// resource (ROB, LQ, SQ): entry i can allocate only once entry i-N has
// freed. get returns the constraint for the next allocation; set records the
// new entry's free cycle.
type ring struct {
	buf []uint64
	idx int // next slot to recycle; wraps without division (sizes like 192 aren't powers of two)
}

func newRing(n int) *ring { return &ring{buf: make([]uint64, n)} }

// next returns the cycle the oldest entry frees (0 while not full) and
// advances, recording freeAt for the new entry.
func (r *ring) next(freeAt uint64) (constraint uint64) {
	constraint = r.buf[r.idx]
	r.buf[r.idx] = freeAt
	r.idx++
	if r.idx == len(r.buf) {
		r.idx = 0
	}
	return constraint
}

// peek returns the constraint without advancing.
func (r *ring) peek() uint64 {
	return r.buf[r.idx]
}

// occupancy counts entries still allocated at cycle now (free cycle in the
// future). O(size); used only by the sampled occupancy probes, never on the
// per-instruction fast path.
func (r *ring) occupancy(now uint64) uint64 {
	var n uint64
	for _, free := range r.buf {
		if free > now {
			n++
		}
	}
	return n
}

// issueQueue is the IQ's occupancy model: the multiset of issue cycles of
// the instructions holding an entry (entries leave out of order, at issue).
// Dispatch fills it to capacity with push, then, once full, asks for the
// earliest issue cycle (min) and replaces that entry with the new
// instruction's issue cycle (replaceMin). Only the multiset is observable.
//
// Once full the queue is a calendar: a count per cycle over a circular
// window of iqWindow cycles starting at the minimum, with a bitmap of the
// non-empty cycles, so finding the next minimum is a trailing-zero count
// over a word or two instead of a heap sift. This works because the
// minimum never moves backwards: a replacing cycle is always above the
// minimum it replaces (an instruction issues after it dispatches, and it
// dispatches no earlier than the freed entry's issue). The rare issue
// cycle beyond the window waits in a min-heap and moves into the calendar
// when the window reaches it.
type issueQueue struct {
	size int
	fill []uint64 // the entries while filling, in push order

	cur uint64 // the minimum once full; the window is [cur, cur+iqWindow)
	cnt [iqWindow]uint32
	occ [iqWindow / 64]uint64 // bit i: cnt[i] > 0
	far minHeap               // entries at or beyond the window's end
}

const (
	iqWindow = 1024 // a power of two, a multiple of 64
	iqMask   = iqWindow - 1
)

func newIssueQueue(size int) *issueQueue {
	return &issueQueue{size: size, fill: make([]uint64, 0, size)}
}

// full reports whether every entry is taken (min and replaceMin apply).
func (q *issueQueue) full() bool { return q.fill == nil }

// push adds an entry while the queue is filling.
func (q *issueQueue) push(v uint64) {
	q.fill = append(q.fill, v)
	if len(q.fill) < q.size {
		return
	}
	q.cur = q.fill[0]
	for _, v := range q.fill {
		q.cur = min(q.cur, v)
	}
	for _, v := range q.fill {
		q.add(v)
	}
	q.fill = nil
}

// min returns the earliest issue cycle of a full queue.
func (q *issueQueue) min() uint64 { return q.cur }

// replaceMin frees the entry with the earliest issue cycle and takes one
// with issue cycle v, which must be above it.
func (q *issueQueue) replaceMin(v uint64) {
	if v-q.cur < iqWindow { // add(v), by hand: the inliner will not
		j := v & iqMask
		q.cnt[j]++
		q.occ[j>>6] |= 1 << (j & 63)
	} else {
		q.far.push(v)
	}
	i := q.cur & iqMask
	if q.cnt[i]--; q.cnt[i] == 0 {
		q.occ[i>>6] &^= 1 << (i & 63)
		q.advance()
	}
}

// add files v >= cur in the calendar, or in the far heap past the window.
func (q *issueQueue) add(v uint64) {
	if v-q.cur >= iqWindow {
		q.far.push(v)
		return
	}
	i := v & iqMask
	q.cnt[i]++
	q.occ[i>>6] |= 1 << (i & 63)
}

// advance moves cur to the next occupied cycle after the minimum's bucket
// emptied, pulling far entries into the calendar as the window reaches
// them.
func (q *issueQueue) advance() {
	i := q.cur & iqMask
	w := i >> 6
	word := q.occ[w] &^ (1<<(i&63) - 1)
	for k := 0; word == 0 && k < len(q.occ); k++ {
		w = (w + 1) % uint64(len(q.occ))
		word = q.occ[w]
	}
	if word == 0 {
		q.cur = q.far.peekMin() // the calendar is empty: the far heap holds all
	} else {
		q.cur += (w<<6 + uint64(bits.TrailingZeros64(word)) - i) & iqMask
	}
	for q.far.len() > 0 && q.far.peekMin()-q.cur < iqWindow {
		q.add(q.far.pop())
	}
}

// occupancy counts entries that have not yet left (issue cycle in the
// future). O(window); sampled-probe use only, like ring.occupancy.
func (q *issueQueue) occupancy(now uint64) uint64 {
	var n uint64
	if !q.full() {
		for _, v := range q.fill {
			if v > now {
				n++
			}
		}
		return n
	}
	base := q.cur & iqMask
	for w, word := range q.occ {
		for ; word != 0; word &= word - 1 {
			i := uint64(w)<<6 + uint64(bits.TrailingZeros64(word))
			if q.cur+(i-base)&iqMask > now {
				n += uint64(q.cnt[i])
			}
		}
	}
	for _, v := range q.far.a {
		if v > now {
			n++
		}
	}
	return n
}

// minHeap is a min-heap of cycles: the issue queue's overflow beyond its
// calendar window.
type minHeap struct {
	a []uint64
}

func (h *minHeap) push(v uint64) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *minHeap) pop() uint64 {
	v := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		sm := i
		if l < last && h.a[l] < h.a[sm] {
			sm = l
		}
		if r < last && h.a[r] < h.a[sm] {
			sm = r
		}
		if sm == i {
			break
		}
		h.a[i], h.a[sm] = h.a[sm], h.a[i]
		i = sm
	}
	return v
}

// peekMin returns the minimum without removing it.
func (h *minHeap) peekMin() uint64 { return h.a[0] }

func (h *minHeap) len() int { return len(h.a) }

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
