package cpu

import (
	"testing"

	"rest/internal/bpred"
	"rest/internal/cache"
	"rest/internal/isa"
	"rest/internal/trace"
)

// Address regions of the fuzz traces. Loads and stores stay in one 16 KB
// region, ARM/DISARM in a disjoint 4 KB one, so no data access ever touches
// a token and the whole footprint fits the L1-D without evictions (an
// evicted armed line would lose its token and turn a valid DISARM into a
// fault).
const (
	fuzzDataBase = 0x1000_0000
	fuzzDataSpan = 16 << 10
	fuzzArmBase  = 0x2000_0000
	fuzzChunks   = 64
	fuzzMaxLen   = 1024
)

// fuzzTrace decodes data, four bytes per entry, into a trace the
// functional simulator could have produced: register dependences over the
// architectural registers, loads and stores of 1-8 bytes at any alignment
// (so forwarding, partial overlaps and drains all occur), control
// transfers whose next PC follows their outcome, and every token chunk
// armed at most once and disarmed at most once, after its ARM. An entry
// whose first byte has both top bits set raises a REST exception and ends
// the trace, as the functional simulator stops there.
func fuzzTrace(data []byte) []trace.Entry {
	reg := func(b byte) uint8 {
		if r := b % (isa.NumRegs + 1); r < isa.NumRegs {
			return r
		}
		return isa.NoReg
	}
	var es []trace.Entry
	var chunk [fuzzChunks]uint8 // 0 never armed, 1 armed, 2 disarmed
	pc := uint64(0x40_0000)
	for ; len(data) >= 4 && len(es) < fuzzMaxLen; data = data[4:] {
		b := data[:4]
		e := trace.Entry{
			Seq: uint64(len(es)), PC: pc, Op: isa.OpAdd,
			Dst: reg(b[1]), Src1: reg(b[2]), Src2: reg(b[3]),
		}
		if b[0]&0x20 != 0 {
			e.Kind = trace.KindRuntime
		}
		faults := b[0]&0xC0 == 0xC0
		mem := false
		switch b[0] % 8 {
		case 2:
			e.Op = isa.OpMul
		case 3:
			e.Op = isa.OpDiv
		case 4, 5:
			e.Op, e.Dst = isa.OpLoad, reg(b[1])
			if b[0]%8 == 5 {
				e.Op, e.Dst = isa.OpStore, isa.NoReg
			}
			e.Addr = fuzzDataBase + (uint64(b[1])<<6|uint64(b[3]))%fuzzDataSpan
			e.Size = 1 << (b[2] % 4)
			mem = true
		case 6:
			e.Dst = isa.NoReg
			e.Op = []isa.Op{isa.OpBeq, isa.OpBne, isa.OpJmp, isa.OpCall, isa.OpRet, isa.OpCallR}[b[1]%6]
			e.Taken = !e.Op.IsCondBranch() || b[2]&1 != 0
			e.Target = 0x40_0000 + uint64(b[3])*isa.InstrBytes
		case 7:
			c := b[1] % fuzzChunks
			e.Addr, e.Size, e.Dst = fuzzArmBase+uint64(c)*64, 64, isa.NoReg
			switch chunk[c] {
			case 0:
				e.Op, chunk[c] = isa.OpArm, 1
				mem = true
			case 1:
				e.Op, chunk[c] = isa.OpDisarm, 2
				mem = true
			default:
				e.Addr, e.Size = 0, 0
			}
		}
		if e.Taken {
			pc = e.Target
		} else {
			pc += isa.InstrBytes
		}
		if faults && mem {
			e.Faults = true
			es = append(es, e)
			break
		}
		es = append(es, e)
	}
	return es
}

// FuzzPipeline drives random valid traces through the out-of-order core
// and checks the window against the Table II structure sizes through the
// commit-time record of every entry, then runs the same trace on the
// in-order core and requires the two to agree architecturally.
func FuzzPipeline(f *testing.F) {
	f.Fuzz(checkPipeline)
}

// checkPipeline is FuzzPipeline's property check on one input.
func checkPipeline(t *testing.T, data []byte) {
	es := fuzzTrace(data)
	cfg := DefaultConfig()
	var rec []retired
	p := New(cfg, fuzzHierarchy(t), bpred.New(bpred.Config{}))
	p.retire = func(r retired) { rec = append(rec, r) }
	st := p.Run(trace.NewSliceReader(es))
	if uint64(len(rec)) != st.Instructions {
		t.Fatalf("%d entries retired, Stats.Instructions = %d", len(rec), st.Instructions)
	}
	if st.Cycles < st.Instructions/uint64(cfg.CommitWidth) {
		t.Fatalf("%d cycles for %d instructions: above the commit width %d",
			st.Cycles, st.Instructions, cfg.CommitWidth)
	}
	var stores []int // indices of the STORE/ARM/DISARM entries so far
	for i, r := range rec {
		if i > 0 && r.commit < rec[i-1].commit {
			t.Fatalf("entry %d commits at %d, before entry %d at %d", i, r.commit, i-1, rec[i-1].commit)
		}
		// Occupancy when entry i takes its entries: the older entries
		// still holding one of the same structure.
		var rob, iq, lq int
		for _, o := range rec[:i] {
			if o.commit > r.dispatch {
				rob++
			}
			if o.issue > r.dispatch {
				iq++
			}
			if o.flags&opLoad != 0 && o.commit > r.dispatch {
				lq++
			}
		}
		if rob >= cfg.ROBSize || iq >= cfg.IQSize {
			t.Fatalf("entry %d dispatches at %d with ROB %d/%d and IQ %d/%d older entries held",
				i, r.dispatch, rob, cfg.ROBSize, iq, cfg.IQSize)
		}
		if r.flags&opLoad != 0 && lq >= cfg.LQSize {
			t.Fatalf("load %d dispatches at %d with %d/%d LQ entries held", i, r.dispatch, lq, cfg.LQSize)
		}
		// The SQ frees each entry when its own write completes, but
		// allocates in order against the entry SQSize stores back only:
		// an older store still writing past that one (a miss behind
		// younger hits) is not counted. So the bound checked is the
		// model's ring bound, not a count of every held entry.
		if r.flags&opStoreLike != 0 {
			if n := len(stores); n >= cfg.SQSize {
				if k := stores[n-cfg.SQSize]; rec[k].sqFree > r.dispatch {
					t.Fatalf("store %d dispatches at %d before store %d, %d stores back, frees at %d",
						i, r.dispatch, k, cfg.SQSize, rec[k].sqFree)
				}
			}
			stores = append(stores, i)
		}
	}

	io := NewInOrder(cfg, fuzzHierarchy(t), bpred.New(bpred.Config{})).Run(trace.NewSliceReader(es))
	if io.Instructions != st.Instructions || io.UserInstrs != st.UserInstrs {
		t.Fatalf("in-order ran %d entries (%d user), out-of-order %d (%d user)",
			io.Instructions, io.UserInstrs, st.Instructions, st.UserInstrs)
	}
	if (io.Exception == nil) != (st.Exception == nil) ||
		io.Exception != nil && io.Exception.Kind != st.Exception.Kind {
		t.Fatalf("exceptions differ: in-order %v, out-of-order %v", io.Exception, st.Exception)
	}
}

func fuzzHierarchy(t *testing.T) *cache.Hierarchy {
	h, err := cache.NewHierarchy(cache.DefaultHierConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
