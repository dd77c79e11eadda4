// Package cpu is the out-of-order timing model. It replays the dynamic
// trace produced by the functional simulator through an 8-wide machine with
// the structure sizes of Table II (192-entry ROB, 64-entry IQ, 32-entry LQ
// and SQ, L-TAGE-class branch prediction) over the cache hierarchy.
//
// The model is dependency-timed rather than cycle-stepped: each instruction's
// fetch, dispatch, issue, completion and commit cycles are derived from its
// register dependences, structural-resource constraints (FIFO-freed ROB, LQ
// and SQ rings; out-of-order-freed IQ via a min-heap of issue cycles),
// per-cycle bandwidth tables, branch-redirect points, and memory-system
// response times. This computes the same steady-state behaviour as a
// cycle-stepped model at a fraction of the cost, which is what lets the full
// Figure 7/8 matrices run as ordinary Go benchmarks.
//
// REST microarchitecture (paper §III-B):
//
//   - ARM and DISARM are handled as stores in the LSQ but never forward
//     their (implicit, secret) value: a load that would forward from an
//     in-flight ARM raises a privileged REST exception, as do a store aimed
//     at an in-flight ARM's location and a DISARM matching an in-flight
//     DISARM (Table I, LSQ column).
//   - In secure mode stores commit eagerly; a token hit detected at the
//     cache after retirement yields an imprecise exception whose detection
//     lag is reported.
//   - In debug mode store commit is delayed until the write completes at the
//     L1-D — the dominant source of debug-mode slowdown (§VI-B) — and
//     exceptions are precise.
package cpu

import (
	"rest/internal/bpred"
	"rest/internal/cache"
	"rest/internal/core"
	"rest/internal/isa"
	"rest/internal/trace"
)

// Config sizes the core per Table II.
type Config struct {
	FetchWidth  int // 8
	IssueWidth  int // 8
	CommitWidth int // 8
	ROBSize     int // 192
	IQSize      int // 64
	LQSize      int // 32
	SQSize      int // 32

	FrontendDepth   uint64 // fetch->dispatch stages (default 6)
	RedirectPenalty uint64 // extra cycles after branch resolution (default 2)

	LoadPorts  int // L1-D read ports per cycle (default 2)
	StorePorts int // L1-D write ports per cycle (default 1)

	ALULat uint64 // default 1
	MulLat uint64 // default 3
	DivLat uint64 // default 12

	Mode core.Mode

	// SerializeArmDisarm models the simple-but-slow alternative the paper
	// rejects (§III-B "LSQ Modification"): instead of the split matching
	// logic in the LSQ, ensure an ARM/DISARM is the only in-flight
	// instruction — drain the window before it and refetch after it.
	SerializeArmDisarm bool
}

// DefaultConfig returns the Table II core configuration.
func DefaultConfig() Config {
	return Config{
		FetchWidth: 8, IssueWidth: 8, CommitWidth: 8,
		ROBSize: 192, IQSize: 64, LQSize: 32, SQSize: 32,
		FrontendDepth: 6, RedirectPenalty: 2,
		LoadPorts: 2, StorePorts: 1,
		ALULat: 1, MulLat: 3, DivLat: 12,
	}
}

func (c *Config) applyDefaults() {
	d := DefaultConfig()
	if c.FetchWidth == 0 {
		c.FetchWidth = d.FetchWidth
	}
	if c.IssueWidth == 0 {
		c.IssueWidth = d.IssueWidth
	}
	if c.CommitWidth == 0 {
		c.CommitWidth = d.CommitWidth
	}
	if c.ROBSize == 0 {
		c.ROBSize = d.ROBSize
	}
	if c.IQSize == 0 {
		c.IQSize = d.IQSize
	}
	if c.LQSize == 0 {
		c.LQSize = d.LQSize
	}
	if c.SQSize == 0 {
		c.SQSize = d.SQSize
	}
	if c.FrontendDepth == 0 {
		c.FrontendDepth = d.FrontendDepth
	}
	if c.RedirectPenalty == 0 {
		c.RedirectPenalty = d.RedirectPenalty
	}
	if c.LoadPorts == 0 {
		c.LoadPorts = d.LoadPorts
	}
	if c.StorePorts == 0 {
		c.StorePorts = d.StorePorts
	}
	if c.ALULat == 0 {
		c.ALULat = d.ALULat
	}
	if c.MulLat == 0 {
		c.MulLat = d.MulLat
	}
	if c.DivLat == 0 {
		c.DivLat = d.DivLat
	}
}

// Stats is the timing-run result.
type Stats struct {
	Cycles       uint64
	Instructions uint64 // all committed entries (user + runtime)
	UserInstrs   uint64
	RuntimeOps   uint64
	IPC          float64

	Mispredicts    uint64
	BranchLookups  uint64
	LSQForwardings uint64

	// Structural-stall accounting (cycles of dispatch delay attributed to
	// each full structure; §VI-B reports IQ-full behaviour).
	ROBFullCycles uint64
	IQFullCycles  uint64
	LQFullCycles  uint64
	SQFullCycles  uint64

	// ROBStoreBlockCycles accumulates cycles the ROB head was held by a
	// store waiting for write completion (debug mode; ~0 in secure mode).
	ROBStoreBlockCycles uint64

	// Exception reports the REST exception, with DetectLagCycles and
	// precision resolved per mode.
	Exception *core.Exception
	// LSQViolation is set when the violation was detected by the LSQ
	// matching logic rather than the cache detector.
	LSQViolation bool
}

// sqEntry is an in-flight store-queue entry used for forwarding checks.
type sqEntry struct {
	addr      uint64
	size      uint8
	op        isa.Op
	dataReady uint64 // cycle store data is available for forwarding
	writeDone uint64 // cycle the store leaves the SQ (write completed)
}

// Pipeline is a single-use timing model instance.
type Pipeline struct {
	cfg    Config
	hier   *cache.Hierarchy
	pred   *bpred.Predictor
	probes *Probes
	ops    [256]opInfo // per-opcode dispatch facts, indexed by isa.Op

	// retire, when set, sees each entry's cycles as it commits: the
	// window the invariant tests check the structures through.
	retire func(retired)
}

// retired is one entry's passage through the window: the cycle it took its
// ROB (and IQ, LQ or SQ) entry, issued and committed, and — for STORE, ARM
// and DISARM — the cycle its SQ entry freed.
type retired struct {
	flags                   opFlags
	dispatch, issue, commit uint64
	sqFree                  uint64
}

// opInfo is what the pipeline needs to know about an opcode, looked up
// once per instruction: which queues it occupies, whether it redirects
// fetch, and the execution latency of non-memory ops.
type opInfo struct {
	flags opFlags
	lat   uint64
}

type opFlags uint8

const (
	opLoad      opFlags = 1 << iota // takes an LQ entry and a load port
	opStoreLike                     // STORE, ARM or DISARM: takes an SQ entry, writes at commit
	opArmLike                       // ARM or DISARM
	opBranch                        // resolved by the branch predictor
)

// New builds a pipeline over a hierarchy and predictor.
func New(cfg Config, hier *cache.Hierarchy, pred *bpred.Predictor) *Pipeline {
	cfg.applyDefaults()
	p := &Pipeline{cfg: cfg, hier: hier, pred: pred}
	for i := range p.ops {
		oi := &p.ops[i]
		oi.lat = cfg.ALULat
		switch isa.Op(i).Class() {
		case isa.ClassLoad:
			oi.flags = opLoad
		case isa.ClassStore:
			oi.flags = opStoreLike
		case isa.ClassArm, isa.ClassDisarm:
			oi.flags = opStoreLike | opArmLike
		case isa.ClassBranch:
			oi.flags = opBranch
		case isa.ClassMul:
			oi.lat = cfg.MulLat
		case isa.ClassDiv:
			oi.lat = cfg.DivLat
		}
	}
	return p
}

// SetProbes attaches an observability probe set (nil = off). Call before
// Run.
func (p *Pipeline) SetProbes(pr *Probes) { p.probes = pr }

// Run replays the trace and returns timing statistics.
func (p *Pipeline) Run(r trace.Reader) *Stats {
	cfg := p.cfg
	st := &Stats{}

	// Fetch, commit and the store port (written at commit) see requests in
	// cycle order and need only a register; issue and the load ports are
	// asked out of order and keep a window table.
	fetchSlots := newSlotReg(cfg.FetchWidth)
	issueSlots := newSlotTable(cfg.IssueWidth)
	commitSlots := newSlotReg(cfg.CommitWidth)
	loadPorts := newSlotTable(cfg.LoadPorts)
	storePorts := newSlotReg(cfg.StorePorts)

	rob := newRing(cfg.ROBSize)
	lq := newRing(cfg.LQSize)
	sq := newRing(cfg.SQSize)
	iq := newIssueQueue(cfg.IQSize)

	// Indexed by the trace's 8-bit register fields directly: isa.NoReg's
	// slot is never written, so it reads as ready at cycle 0.
	var regReady [256]uint64
	var fetchReady uint64
	lastFetchLine := ^uint64(0)
	var lastCommit uint64

	stores := newStoreQueue(cfg.SQSize)

	// Pull entries in batches when the reader supports it (the trace
	// Replayer does): one interface call per buffer instead of per entry.
	// The Replayer's ReadBatch contract keeps its token shadow exact under
	// this read-ahead.
	var ebuf [256]trace.Entry
	var ebn, ebi int
	br, batched := r.(trace.BatchReader)

	for {
		var e *trace.Entry
		if batched {
			if ebi == ebn {
				ebn = br.ReadBatch(ebuf[:])
				ebi = 0
				if ebn == 0 {
					break
				}
			}
			e = &ebuf[ebi]
			ebi++
		} else {
			ev, ok := r.Next()
			if !ok {
				break
			}
			e = &ev
		}
		st.Instructions++
		if e.Kind == trace.KindUser {
			st.UserInstrs++
		} else {
			st.RuntimeOps++
		}

		// --- Fetch ---
		f := fetchSlots.reserve(fetchReady)
		line := e.PC &^ (cache.LineBytes - 1)
		if line != lastFetchLine {
			done := p.hier.FetchInstr(f, e.PC)
			if done > f+2 { // beyond pipelined hit latency: I-miss stall
				f = fetchSlots.reserve(done)
			}
			lastFetchLine = line
		}
		if f > fetchReady {
			fetchReady = f
		}

		// --- Dispatch (rename + structural allocation) ---
		d := f + cfg.FrontendDepth
		// f is non-decreasing across instructions, so every future scanSQ
		// query uses at = issue >= (f' + FrontendDepth) + 1 >= d + 1. (d
		// itself may be raised by structural constraints below, and those
		// raises do not carry to the next instruction, so the safe prune
		// bound is captured here, before them.)
		sqPruneAt := d + 1
		if c := rob.peek(); c > d {
			st.ROBFullCycles += c - d
			d = c
		}
		iqFull := iq.full()
		if iqFull {
			// The IQ entry that frees is the one with the earliest issue
			// cycle; it is replaced with this instruction's issue cycle
			// once that is known, below.
			if m := iq.min(); m > d {
				st.IQFullCycles += m - d
				d = m
			}
		}
		// Occupancy probes, sampled at dispatch: how full each window
		// structure is at cycle d. Deterministic (a function of the trace
		// and the timing model alone) and off the fast path when disabled.
		if p.probes != nil && st.Instructions&(probeSampleStride-1) == 0 {
			p.probes.sample(d, rob, lq, sq, iq)
		}
		oi := &p.ops[e.Op]
		isLoad := oi.flags&opLoad != 0
		isStoreLike := oi.flags&opStoreLike != 0
		isArmLike := oi.flags&opArmLike != 0
		if cfg.SerializeArmDisarm && isArmLike && lastCommit > d {
			// Pipeline drain: nothing older may be in flight.
			d = lastCommit
		}
		if isLoad {
			if c := lq.peek(); c > d {
				st.LQFullCycles += c - d
				d = c
			}
		}
		if isStoreLike {
			if c := sq.peek(); c > d {
				st.SQFullCycles += c - d
				d = c
			}
		}
		if isLoad || isStoreLike {
			// Prune stores that can never match another scan: an entry whose
			// write completed by sqPruneAt is invisible to this and every
			// future scan (all query at issue >= sqPruneAt). This keeps the
			// scanned window at the handful of genuinely in-flight stores
			// instead of the full SQ history.
			stores.prune(sqPruneAt)
		}

		// --- Issue ---
		ready := max(d+1, regReady[e.Src1], regReady[e.Src2])
		issue := issueSlots.reserve(ready)

		// --- Execute ---
		var complete uint64
		var detect uint64 // cycle a REST violation is observed at the cache
		lsqViolation := false

		switch {
		case isLoad:
			issue = loadPorts.reserve(issue)
			var fwd, conflict *sqEntry
			var armHit bool
			if stores.mayOverlap(e.Addr, e.Size) {
				fwd, conflict, armHit = scanSQ(stores.live(), e.Addr, e.Size, issue)
			}
			switch {
			case armHit:
				// Load "hits" an in-flight ARM: the forwarding path would
				// leak the token, so the LSQ raises instead (§III-B).
				lsqViolation = true
				complete = issue + 1
				detect = complete
			case fwd != nil:
				st.LSQForwardings++
				complete = max64(issue, fwd.dataReady) + 1
			case conflict != nil:
				// Partial overlap: conservatively wait for the store to
				// drain, then access the cache.
				at := max64(issue, conflict.writeDone)
				res := p.hier.L1D.Load(at, e.Addr, e.Size)
				complete = p.loadComplete(res, &detect, e.Faults)
			default:
				res := p.hier.L1D.Load(issue, e.Addr, e.Size)
				complete = p.loadComplete(res, &detect, e.Faults)
			}

		case isStoreLike:
			// Address/data into the SQ.
			complete = issue + 1
			if !stores.mayOverlap(e.Addr, e.Size) {
				break
			}
			switch e.Op {
			case isa.OpStore:
				_, _, armHit := scanSQ(stores.live(), e.Addr, e.Size, issue)
				lsqViolation = armHit
			case isa.OpDisarm:
				lsqViolation = scanSQDisarm(stores.live(), e.Addr, issue)
			}
			if lsqViolation {
				detect = complete
			}

		default:
			complete = issue + oi.lat
		}

		if e.Dst != isa.NoReg {
			regReady[e.Dst] = complete
		}

		// --- Commit (in order) ---
		c := max64(lastCommit, complete+1)
		c = commitSlots.reserve(c)

		var writeDone uint64
		if isStoreLike && !lsqViolation {
			// The write to the L1-D happens at commit.
			wstart := storePorts.reserve(c)
			resHit := false
			switch e.Op {
			case isa.OpStore:
				res := p.hier.L1D.Store(wstart, e.Addr, e.Size)
				writeDone = res.Done
				resHit = res.Hit
				if res.TokenHit || e.Faults {
					detect = res.Done
				}
			case isa.OpArm:
				res := p.hier.L1D.Arm(wstart, e.Addr)
				writeDone = res.Done
				resHit = res.Hit
				if e.Faults { // misaligned arm: precise invalid-instr exception
					detect = res.Done
				}
			case isa.OpDisarm:
				res, okDisarm := p.hier.L1D.Disarm(wstart, e.Addr)
				writeDone = res.Done
				resHit = res.Hit
				if !okDisarm || e.Faults {
					detect = res.Done
				}
			}
			if cfg.Mode == core.Debug {
				// Precise exceptions: the store may not leave the ROB until
				// the L1-D has acknowledged the write and its token check.
				// On a hit the ack (tag + token-bit check) returns the next
				// cycle; on a miss the whole line must arrive first, which
				// is where debug mode's order-of-magnitude ROB blocking
				// comes from (§VI-B).
				ack := writeDone
				if resHit {
					// Hit: the token bit lives in the tag array, so the
					// check completes at commit without waiting for the data
					// port; only missing lines hold the ROB head until the
					// fill (and its token check) completes.
					ack = c
				}
				if ack > c {
					st.ROBStoreBlockCycles += ack - c
					c = ack
				}
			}
		}
		lastCommit = c

		// Record structure exits.
		rob.next(c)
		if iqFull {
			iq.replaceMin(issue)
		} else {
			iq.push(issue)
		}
		if isLoad {
			lq.next(c)
		}
		if isStoreLike {
			free := max64(c, writeDone)
			sq.next(free)
			stores.push(sqEntry{addr: e.Addr, size: e.Size, op: e.Op, dataReady: complete, writeDone: free})
		}
		if p.retire != nil {
			p.retire(retired{flags: oi.flags, dispatch: d, issue: issue, commit: c, sqFree: max64(c, writeDone)})
		}

		if cfg.SerializeArmDisarm && isArmLike {
			// Refill: younger instructions refetch after the arm completes.
			done := max64(c, writeDone)
			if done > fetchReady {
				fetchReady = done
			}
		}

		// --- Branch resolution ---
		if oi.flags&opBranch != 0 {
			st.BranchLookups++
			if p.pred.Resolve(e.PC, e.Op, e.Taken, e.Target, e.PC+isa.InstrBytes) {
				st.Mispredicts++
				redirect := complete + cfg.RedirectPenalty
				if redirect > fetchReady {
					fetchReady = redirect
				}
				lastFetchLine = ^uint64(0)
			}
		}

		// --- Exception reporting ---
		if e.Faults || lsqViolation {
			exc := &core.Exception{Addr: e.Addr, PC: e.PC}
			if lsqViolation {
				switch e.Op {
				case isa.OpLoad:
					exc.Kind = core.ViolationForwarding
				case isa.OpStore:
					exc.Kind = core.ViolationStoreInflightArm
				default:
					exc.Kind = core.ViolationDoubleDisarm
				}
			} else {
				exc.Kind = faultKind(e.Op)
			}
			if detect == 0 {
				detect = c
			}
			if cfg.Mode == core.Debug {
				exc.Precise = true
				if detect > c {
					// Precision guarantee: hold commit to the detection.
					lastCommit = detect
				}
			} else {
				exc.Precise = false
				if detect > c {
					exc.DetectLagCycles = detect - c
				}
			}
			st.Exception = exc
			st.LSQViolation = lsqViolation
			break
		}
	}

	st.Cycles = lastCommit
	if st.Cycles > 0 {
		st.IPC = float64(st.Instructions) / float64(st.Cycles)
	}
	p.probes.record(st)
	return st
}

// loadComplete resolves a load's completion cycle under the mode's
// critical-word-first policy (§III-B): secure mode releases the load at the
// critical word and reports any token verdict at fill completion (the
// imprecise-exception detection lag); debug mode holds loads whose line
// carries token chunks at the MSHR until the whole line has been checked.
func (p *Pipeline) loadComplete(res cache.AccessResult, detect *uint64, faults bool) uint64 {
	complete := res.Done
	if res.TokenHit || faults {
		*detect = res.FillDone
		if p.cfg.Mode == core.Debug {
			complete = res.FillDone
		}
	}
	return complete
}

// storeQueue is the window of in-flight stores (STORE, ARM, DISARM) that
// loads and younger stores are checked against, bounded by the SQ size.
// The window slides through a fixed backing array and is compacted to the
// front when it reaches the end, so steady-state store traffic never
// touches the allocator.
//
// It is indexed by address: lines counts, per line-hash bucket, the live
// entries touching a line of that bucket. An access whose lines all count
// zero overlaps no live entry, so every scan over the window would come up
// empty and mayOverlap lets the caller skip it: the scan runs only where
// an overlap is possible.
type storeQueue struct {
	size       int
	back       []sqEntry
	start, end int // the live window is back[start:end]
	lines      [sqLineBuckets]uint32
}

const sqLineBuckets = 256 // a power of two

func newStoreQueue(size int) *storeQueue {
	return &storeQueue{size: size, back: make([]sqEntry, 4*size)}
}

// live returns the window, oldest entry first.
func (q *storeQueue) live() []sqEntry { return q.back[q.start:q.end] }

// prune drops the oldest entries whose write completed by at.
func (q *storeQueue) prune(at uint64) {
	for q.start < q.end && q.back[q.start].writeDone <= at {
		q.count(&q.back[q.start], ^uint32(0))
		q.start++
	}
}

// push appends the youngest entry, dropping the oldest past the SQ size.
func (q *storeQueue) push(s sqEntry) {
	if q.end == len(q.back) {
		copy(q.back, q.back[q.start:q.end])
		q.end -= q.start
		q.start = 0
	}
	q.back[q.end] = s
	q.count(&q.back[q.end], 1)
	q.end++
	if q.end-q.start > q.size {
		q.count(&q.back[q.start], ^uint32(0))
		q.start++
	}
}

// count adds delta (1, or -1 as ^0) to the bucket of every line s touches.
// A zero-size entry still occupies the line of its address: scanSQ treats
// it as a point that a straddling access overlaps.
func (q *storeQueue) count(s *sqEntry, delta uint32) {
	last := (s.addr + uint64(max(s.size, 1)) - 1) / cache.LineBytes
	for l := s.addr / cache.LineBytes; l <= last; l++ {
		q.lines[l&(sqLineBuckets-1)] += delta
	}
}

// mayOverlap reports whether a live entry might overlap [addr, addr+size):
// false means none does.
func (q *storeQueue) mayOverlap(addr uint64, size uint8) bool {
	last := (addr + uint64(max(size, 1)) - 1) / cache.LineBytes
	for l := addr / cache.LineBytes; l <= last; l++ {
		if q.lines[l&(sqLineBuckets-1)] != 0 {
			return true
		}
	}
	return false
}

// scanSQ searches the live store-queue entries (oldest to youngest; all are
// older than the current access) for address matches against [addr,
// addr+size). It returns the youngest fully-covering regular store still in
// flight at cycle `at` (forwarding source), the youngest partially
// overlapping in-flight store (ordering conflict), and whether any matching
// in-flight entry is an ARM (REST violation). An overlapping in-flight
// DISARM orders like a regular store but never forwards (its zeroed data
// is not a store's value): it reports as a conflict.
func scanSQ(sqLive []sqEntry, addr uint64, size uint8, at uint64) (fwd, conflict *sqEntry, armHit bool) {
	end := addr + uint64(size)
	for i := len(sqLive) - 1; i >= 0; i-- {
		s := &sqLive[i]
		if s.writeDone <= at {
			continue // already drained to the cache
		}
		sEnd := s.addr + uint64(s.size)
		if end <= s.addr || addr >= sEnd {
			continue // disjoint
		}
		if s.op == isa.OpArm {
			// The REST matching logic splits the comparison into a line
			// match plus an offset match; any line overlap with an ARM trips
			// the violation check regardless of exact bytes.
			return nil, nil, true
		}
		if s.addr <= addr && sEnd >= end && s.op == isa.OpStore {
			if fwd == nil {
				fwd = s
			}
			return fwd, nil, false
		}
		if conflict == nil {
			conflict = s
			return nil, conflict, false
		}
	}
	return nil, nil, false
}

// scanSQDisarm reports whether an in-flight DISARM for the same token chunk
// is present (double-disarm check, Table I).
func scanSQDisarm(sqLive []sqEntry, addr uint64, at uint64) bool {
	for i := len(sqLive) - 1; i >= 0; i-- {
		s := &sqLive[i]
		if s.writeDone <= at || s.op != isa.OpDisarm {
			continue
		}
		if s.addr == addr {
			return true
		}
	}
	return false
}

func faultKind(op isa.Op) core.ViolationKind {
	switch op {
	case isa.OpLoad:
		return core.ViolationLoad
	case isa.OpStore:
		return core.ViolationStore
	case isa.OpArm:
		return core.ViolationMisaligned
	case isa.OpDisarm:
		return core.ViolationDisarmUnarmed
	}
	return core.ViolationLoad
}
