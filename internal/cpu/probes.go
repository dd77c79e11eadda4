package cpu

import "rest/internal/obs"

// probeSampleStride is how many committed entries pass between occupancy
// samples. The occupancy scans are O(structure size), so sampling keeps the
// enabled-probes cost bounded; the stride is a power of two for a cheap
// mask test on the fast path.
const probeSampleStride = 64

// Probes is the timing model's hook set into the observability plane. The
// counters are flushed once from the run's final Stats (zero hot-path
// cost); the occupancy histograms are sampled live every probeSampleStride
// committed entries. A nil *Probes disables everything.
type Probes struct {
	Cycles              *obs.Counter
	Instructions        *obs.Counter
	UserInstructions    *obs.Counter
	RuntimeOps          *obs.Counter
	Flushes             *obs.Counter // branch mispredicts = pipeline flushes
	BranchLookups       *obs.Counter
	LSQForwardings      *obs.Counter
	ROBFullCycles       *obs.Counter
	IQFullCycles        *obs.Counter
	LQFullCycles        *obs.Counter
	SQFullCycles        *obs.Counter
	ROBStoreBlockCycles *obs.Counter

	// Occupancy histograms, sampled at dispatch (out-of-order core only;
	// the in-order core has no windows to measure).
	ROBOccupancy *obs.Histogram
	IQOccupancy  *obs.Histogram
	LQOccupancy  *obs.Histogram
	SQOccupancy  *obs.Histogram
}

// NewProbes registers the cpu metric set in r (nil r -> nil probes). The
// histogram bounds cover the Table II structure sizes (192-entry ROB,
// 64-entry IQ, 32-entry LQ/SQ); occupancy above the top bound lands in the
// +inf bucket, so resized cores still record correctly.
func NewProbes(r *obs.Registry) *Probes {
	if r == nil {
		return nil
	}
	return &Probes{
		Cycles:              r.Counter("cpu.cycles"),
		Instructions:        r.Counter("cpu.instructions"),
		UserInstructions:    r.Counter("cpu.user_instructions"),
		RuntimeOps:          r.Counter("cpu.runtime_ops"),
		Flushes:             r.Counter("cpu.flushes"),
		BranchLookups:       r.Counter("cpu.branch_lookups"),
		LSQForwardings:      r.Counter("cpu.lsq_forwardings"),
		ROBFullCycles:       r.Counter("cpu.rob_full_cycles"),
		IQFullCycles:        r.Counter("cpu.iq_full_cycles"),
		LQFullCycles:        r.Counter("cpu.lq_full_cycles"),
		SQFullCycles:        r.Counter("cpu.sq_full_cycles"),
		ROBStoreBlockCycles: r.Counter("cpu.rob_store_block_cycles"),
		ROBOccupancy:        r.Histogram("cpu.rob_occupancy", 0, 24, 48, 96, 144, 192),
		IQOccupancy:         r.Histogram("cpu.iq_occupancy", 0, 8, 16, 32, 48, 64),
		LQOccupancy:         r.Histogram("cpu.lq_occupancy", 0, 4, 8, 16, 24, 32),
		SQOccupancy:         r.Histogram("cpu.sq_occupancy", 0, 4, 8, 16, 24, 32),
	}
}

// record flushes a finished run's Stats into the counters. Nil-safe; called
// once at the end of Pipeline.Run / InOrder.Run.
func (p *Probes) record(st *Stats) {
	if p == nil {
		return
	}
	p.Cycles.Add(st.Cycles)
	p.Instructions.Add(st.Instructions)
	p.UserInstructions.Add(st.UserInstrs)
	p.RuntimeOps.Add(st.RuntimeOps)
	p.Flushes.Add(st.Mispredicts)
	p.BranchLookups.Add(st.BranchLookups)
	p.LSQForwardings.Add(st.LSQForwardings)
	p.ROBFullCycles.Add(st.ROBFullCycles)
	p.IQFullCycles.Add(st.IQFullCycles)
	p.LQFullCycles.Add(st.LQFullCycles)
	p.SQFullCycles.Add(st.SQFullCycles)
	p.ROBStoreBlockCycles.Add(st.ROBStoreBlockCycles)
}

// sample records one occupancy observation of every window structure at
// dispatch cycle d. Nil-safe.
func (p *Probes) sample(d uint64, rob, lq, sq *ring, iq *issueQueue) {
	if p == nil {
		return
	}
	p.ROBOccupancy.Observe(rob.occupancy(d))
	p.IQOccupancy.Observe(iq.occupancy(d))
	p.LQOccupancy.Observe(lq.occupancy(d))
	p.SQOccupancy.Observe(sq.occupancy(d))
}
