package cpu

import (
	"math/rand"
	"sort"
	"testing"

	"rest/internal/isa"
)

func opStore() isa.Op  { return isa.OpStore }
func opArm() isa.Op    { return isa.OpArm }
func opDisarm() isa.Op { return isa.OpDisarm }

func TestSlotTableBandwidth(t *testing.T) {
	s := newSlotTable(2)
	// Three reservations at the same cycle: third spills to the next.
	if got := s.reserve(10); got != 10 {
		t.Errorf("first = %d, want 10", got)
	}
	if got := s.reserve(10); got != 10 {
		t.Errorf("second = %d, want 10", got)
	}
	if got := s.reserve(10); got != 11 {
		t.Errorf("third = %d, want 11", got)
	}
	// Later cycle resets the count.
	if got := s.reserve(100); got != 100 {
		t.Errorf("later = %d, want 100", got)
	}
}

func TestSlotTableNeverBeforeRequest(t *testing.T) {
	s := newSlotTable(1)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		at := uint64(r.Intn(100000))
		got := s.reserve(at)
		if got < at {
			t.Fatalf("reserve(%d) = %d (before request)", at, got)
		}
	}
}

func TestRingFIFOConstraint(t *testing.T) {
	r := newRing(3)
	// First three allocations see zero constraints.
	for i, free := range []uint64{10, 20, 30} {
		if c := r.next(free); c != 0 {
			t.Errorf("alloc %d constraint = %d, want 0", i, c)
		}
	}
	// Fourth sees the first's free time, and so on.
	if c := r.next(40); c != 10 {
		t.Errorf("constraint = %d, want 10", c)
	}
	if c := r.peek(); c != 20 {
		t.Errorf("peek = %d, want 20", c)
	}
	if c := r.next(50); c != 20 {
		t.Errorf("constraint = %d, want 20", c)
	}
}

func TestMinHeapOrdering(t *testing.T) {
	h := &minHeap{}
	r := rand.New(rand.NewSource(9))
	var vals []uint64
	for i := 0; i < 500; i++ {
		v := uint64(r.Intn(10000))
		vals = append(vals, v)
		h.push(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i, want := range vals {
		if got := h.pop(); got != want {
			t.Fatalf("pop %d = %d, want %d", i, got, want)
		}
	}
	if h.len() != 0 {
		t.Errorf("heap not empty: %d", h.len())
	}
}

func TestMax64(t *testing.T) {
	if max64(3, 5) != 5 || max64(5, 3) != 5 || max64(4, 4) != 4 {
		t.Error("max64 broken")
	}
}

func TestScanSQSemantics(t *testing.T) {
	sq := []sqEntry{
		{addr: 0x100, size: 8, op: opStore(), dataReady: 5, writeDone: 100},
		{addr: 0x200, size: 64, op: opArm(), dataReady: 6, writeDone: 100},
	}
	// Full containment by the regular store forwards.
	fwd, conflict, armHit := scanSQ(sq, 0x100, 8, 10)
	if fwd == nil || conflict != nil || armHit {
		t.Errorf("containment: fwd=%v conflict=%v arm=%v", fwd, conflict, armHit)
	}
	// Overlap with the ARM raises.
	_, _, armHit = scanSQ(sq, 0x210, 8, 10)
	if !armHit {
		t.Error("load overlapping in-flight arm not flagged")
	}
	// Drained entries (writeDone <= now) are invisible.
	fwd, _, armHit = scanSQ(sq, 0x100, 8, 200)
	if fwd != nil || armHit {
		t.Error("drained entries still matched")
	}
	// Partial overlap conflicts.
	_, conflict, _ = scanSQ(sq, 0x104, 8, 10)
	if conflict == nil {
		t.Error("partial overlap not flagged as conflict")
	}
}

func TestScanSQDisarm(t *testing.T) {
	sq := []sqEntry{{addr: 0x300, size: 64, op: opDisarm(), writeDone: 100}}
	if !scanSQDisarm(sq, 0x300, 10) {
		t.Error("in-flight disarm not matched")
	}
	if scanSQDisarm(sq, 0x340, 10) {
		t.Error("different chunk matched")
	}
	if scanSQDisarm(sq, 0x300, 200) {
		t.Error("drained disarm matched")
	}
}

// TestSlotRegMatchesSlotTable pins the register's exactness claim: over a
// monotone request stream it grants exactly the cycles the window table
// grants, at every width.
func TestSlotRegMatchesSlotTable(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, width := range []int{1, 2, 8} {
		reg, tab := newSlotReg(width), newSlotTable(width)
		var at uint64
		for i := 0; i < 50000; i++ {
			switch r.Intn(4) {
			case 0: // same cycle again
			case 1:
				at += uint64(r.Intn(3))
			default:
				at += uint64(r.Intn(40))
			}
			if got, want := reg.reserve(at), tab.reserve(at); got != want {
				t.Fatalf("width %d request %d at %d: register grants %d, table %d", width, i, at, got, want)
			}
		}
	}
}

// TestIssueQueueMatchesMultiset drives the calendar queue the way dispatch
// does (fill, then replace the minimum with a later cycle, now and then
// one beyond the calendar window) and checks its minimum and occupancy
// against a plain multiset.
func TestIssueQueueMatchesMultiset(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const size = 64
	q := newIssueQueue(size)
	var ref []uint64
	for i := 0; i < size; i++ {
		v := uint64(100 + r.Intn(300))
		q.push(v)
		ref = append(ref, v)
	}
	for i := 0; i < 200000; i++ {
		sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })
		if !q.full() || q.min() != ref[0] {
			t.Fatalf("step %d: min = %d (full %v), want %d", i, q.min(), q.full(), ref[0])
		}
		if i%97 == 0 {
			now := ref[0] + uint64(r.Intn(2*iqWindow))
			var want uint64
			for _, v := range ref {
				if v > now {
					want++
				}
			}
			if got := q.occupancy(now); got != want {
				t.Fatalf("step %d: occupancy(%d) = %d, want %d", i, now, got, want)
			}
		}
		v := ref[0] + 1 + uint64(r.Intn(64))
		if r.Intn(50) == 0 {
			v += uint64(r.Intn(4 * iqWindow))
		}
		q.replaceMin(v)
		ref[0] = v
	}
}
