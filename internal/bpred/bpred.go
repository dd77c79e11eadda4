// Package bpred implements the branch prediction substrate used by the
// fetch stage of the timing model. The paper's gem5 configuration uses
// L-TAGE with 1+12 components and ~31k entries (Table II); we implement a
// TAGE predictor with a bimodal base table and geometrically growing tagged
// history tables, plus a branch target buffer and a return address stack for
// call/return targets.
package bpred

import (
	"math"

	"rest/internal/isa"
)

// Config sizes the predictor. Zero values are replaced by defaults matching
// Table II's scale.
type Config struct {
	BimodalBits  int // log2 entries in base predictor (default 14 -> 16k)
	TaggedTables int // number of tagged components (default 12)
	TaggedBits   int // log2 entries per tagged table (default 10)
	TagWidth     int // tag bits per tagged entry (default 11)
	MinHistory   int // shortest tagged history length (default 4)
	MaxHistory   int // longest tagged history length (default 640)
	BTBBits      int // log2 BTB entries (default 12)
	RASEntries   int // return address stack depth (default 32)
	LoopBits     int // log2 loop-predictor entries (default 8; <0 disables)
}

func (c *Config) applyDefaults() {
	if c.BimodalBits == 0 {
		c.BimodalBits = 14
	}
	if c.TaggedTables == 0 {
		c.TaggedTables = 12
	}
	if c.TaggedBits == 0 {
		c.TaggedBits = 10
	}
	if c.TagWidth == 0 {
		c.TagWidth = 11
	}
	if c.MinHistory == 0 {
		c.MinHistory = 4
	}
	if c.MaxHistory == 0 {
		c.MaxHistory = 640
	}
	if c.BTBBits == 0 {
		c.BTBBits = 12
	}
	if c.RASEntries == 0 {
		c.RASEntries = 32
	}
	if c.LoopBits == 0 {
		c.LoopBits = 8
	}
}

type taggedEntry struct {
	tag    uint32
	ctr    int8  // 3-bit signed saturating: -4..3, taken when >= 0
	useful uint8 // 2-bit useful counter
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
}

// Predictor is a TAGE branch direction predictor with BTB and RAS. It is
// deliberately deterministic: allocation tie-breaking uses a simple LFSR.
type Predictor struct {
	cfg Config

	bimodal []int8 // 2-bit counters: -2..1, taken when >= 0

	tables [][]taggedEntry
	hist   []tableHistory // one per tagged table: its window and folds

	// The global history is a circular buffer of outcomes: the newest at
	// ghist[ghead], the one of age a at ghist[(ghead+a)&gmask]. Its length
	// is a power of two above the longest window, so pushing an outcome
	// moves the head instead of shifting the buffer (Seznec & Michaud,
	// JILP 2006).
	ghist []byte
	ghead int
	gmask int

	// Fold widths and masks, shared by every table: the index fold is
	// TaggedBits wide, the two tag folds TagWidth and TagWidth-1. When
	// TagWidth-1 == TaggedBits (the defaults) the second tag fold has the
	// index fold's length, width and inputs, so it is the same register:
	// tag1IsIdx skips computing it.
	idxBits, tagBits, tag1Bits uint32
	idxMask, tagMask, tag1Mask uint32
	tag1IsIdx                  bool

	btb  []btbEntry
	ras  []uint64
	rsp  int
	loop *loopPredictor // the "L" of L-TAGE; nil when disabled

	lfsr uint32

	// Stats.
	Lookups      uint64
	Mispredicts  uint64
	TargetMisses uint64
	RASCorrect   uint64
	RASWrong     uint64
}

// tableHistory is one tagged table's view of the global history: its window
// length and the three folded registers that compress that window into the
// table's index and tag (TAGE's circular shift registers). A fold of width
// W over the last L outcomes is XOR_{a<L} h[a] << (a mod W), h[0] the
// newest; pushHistory keeps all three current in one pass per branch.
type tableHistory struct {
	len             int    // window length: outcomes of age < len are folded in
	idx, tag0, tag1 uint32 // index fold, tag fold, second (narrower) tag fold
	// The outcome leaving the window (age len after a push) sits at bit
	// len mod W of each fold; these are those positions.
	idxOut, tag0Out, tag1Out uint32
}

// New builds a predictor.
func New(cfg Config) *Predictor {
	cfg.applyDefaults()
	p := &Predictor{
		cfg:     cfg,
		bimodal: make([]int8, 1<<cfg.BimodalBits),
		btb:     make([]btbEntry, 1<<cfg.BTBBits),
		ras:     make([]uint64, cfg.RASEntries),
		lfsr:    0xACE1,
	}
	p.tables = make([][]taggedEntry, cfg.TaggedTables)
	p.hist = make([]tableHistory, cfg.TaggedTables)
	p.idxBits, p.tagBits, p.tag1Bits = uint32(cfg.TaggedBits), uint32(cfg.TagWidth), uint32(cfg.TagWidth-1)
	p.idxMask, p.tagMask, p.tag1Mask = 1<<p.idxBits-1, 1<<p.tagBits-1, 1<<p.tag1Bits-1
	p.tag1IsIdx = p.tag1Bits == p.idxBits
	// Geometric history lengths between MinHistory and MaxHistory.
	ratio := 1.0
	if cfg.TaggedTables > 1 {
		ratio = math.Pow(float64(cfg.MaxHistory)/float64(cfg.MinHistory), 1.0/float64(cfg.TaggedTables-1))
	}
	l := float64(cfg.MinHistory)
	longest := 0
	for i := 0; i < cfg.TaggedTables; i++ {
		p.tables[i] = make([]taggedEntry, 1<<cfg.TaggedBits)
		n := int(l + 0.5)
		if i > 0 && n <= p.hist[i-1].len {
			n = p.hist[i-1].len + 1
		}
		l *= ratio
		p.hist[i] = tableHistory{
			len:     n,
			idxOut:  uint32(n) % p.idxBits,
			tag0Out: uint32(n) % p.tagBits,
			tag1Out: uint32(n) % p.tag1Bits,
		}
		longest = max(longest, n)
	}
	size := 1
	for size <= longest {
		size <<= 1
	}
	p.ghist = make([]byte, size)
	p.gmask = size - 1
	if cfg.LoopBits > 0 {
		p.loop = newLoopPredictor(cfg.LoopBits)
	}
	return p
}

func (p *Predictor) rand() uint32 {
	// 16-bit Galois LFSR.
	lsb := p.lfsr & 1
	p.lfsr >>= 1
	if lsb != 0 {
		p.lfsr ^= 0xB400
	}
	return p.lfsr
}

func (p *Predictor) bimodalIndex(pc uint64) int {
	return int((pc >> 4) & uint64(len(p.bimodal)-1))
}

func (p *Predictor) tableIndex(pc uint64, t int) int {
	idx := uint32(pc>>4) ^ uint32(pc>>(4+p.idxBits)) ^ p.hist[t].idx
	return int(idx & p.idxMask)
}

func (p *Predictor) tableTag(pc uint64, t int) uint32 {
	h := &p.hist[t]
	tag1 := h.tag1
	if p.tag1IsIdx {
		tag1 = h.idx
	}
	return (uint32(pc>>4) ^ h.tag0 ^ tag1<<1) & p.tagMask
}

// PredictDirection predicts taken/not-taken for a conditional branch at pc.
// It returns the prediction plus an opaque provider index used on update.
// A confident loop-predictor entry overrides the TAGE tables (L-TAGE).
func (p *Predictor) PredictDirection(pc uint64) (taken bool, provider int) {
	if p.loop != nil {
		if lt, confident := p.loop.predict(pc); confident {
			return lt, -2
		}
	}
	provider = -1
	for t := p.cfg.TaggedTables - 1; t >= 0; t-- {
		e := &p.tables[t][p.tableIndex(pc, t)]
		if e.tag == p.tableTag(pc, t) {
			return e.ctr >= 0, t
		}
	}
	return p.bimodal[p.bimodalIndex(pc)] >= 0, -1
}

// Update trains the predictor with the actual outcome. provider is the value
// returned by PredictDirection for the same branch. mispredicted reports
// whether the direction prediction was wrong (drives allocation).
func (p *Predictor) Update(pc uint64, taken bool, provider int, mispredicted bool) {
	if p.loop != nil {
		p.loop.update(pc, taken)
	}
	if provider == -2 {
		// Loop predictor provided; it trained above. Keep history current.
		p.pushHistory(taken)
		return
	}
	// Train provider.
	if provider >= 0 {
		e := &p.tables[provider][p.tableIndex(pc, provider)]
		if e.tag == p.tableTag(pc, provider) {
			e.ctr = satUpdate3(e.ctr, taken)
			if !mispredicted && e.useful < 3 {
				e.useful++
			}
		}
	} else {
		i := p.bimodalIndex(pc)
		p.bimodal[i] = satUpdate2(p.bimodal[i], taken)
	}

	// On a misprediction, allocate in a longer-history table.
	if mispredicted && provider < p.cfg.TaggedTables-1 {
		start := provider + 1
		// Randomize start a little, as TAGE does, to spread allocations.
		if start < p.cfg.TaggedTables-1 && p.rand()&1 == 0 {
			start++
		}
		for t := start; t < p.cfg.TaggedTables; t++ {
			e := &p.tables[t][p.tableIndex(pc, t)]
			if e.useful == 0 {
				e.tag = p.tableTag(pc, t)
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				break
			}
			e.useful--
		}
	}

	// Push outcome into global history and refresh folded histories.
	p.pushHistory(taken)
}

// pushHistory records a conditional branch's outcome and brings every
// table's folds up to date. Each fold rotates left by one within its width
// (the shift plus the carried-out top bit), takes the new outcome at bit 0
// and cancels the outcome leaving the window at bit len mod W.
func (p *Predictor) pushHistory(taken bool) {
	var in uint32
	if taken {
		in = 1
	}
	p.ghead = (p.ghead - 1) & p.gmask
	p.ghist[p.ghead] = byte(in)
	ghist, head, gmask := p.ghist, p.ghead, p.gmask
	// Shift counts are below 32 by construction; masking them says so to
	// the compiler, which then emits bare shifts.
	ib, tb, t1b := p.idxBits&31, p.tagBits&31, p.tag1Bits&31
	im, tm, t1m := p.idxMask, p.tagMask, p.tag1Mask
	for i := range p.hist {
		h := &p.hist[i]
		out := uint32(ghist[(head+h.len)&gmask])
		c := h.idx<<1 | in ^ out<<(h.idxOut&31)
		h.idx = (c ^ c>>ib) & im
		c = h.tag0<<1 | in ^ out<<(h.tag0Out&31)
		h.tag0 = (c ^ c>>tb) & tm
		if !p.tag1IsIdx {
			c = h.tag1<<1 | in ^ out<<(h.tag1Out&31)
			h.tag1 = (c ^ c>>t1b) & t1m
		}
	}
}

func satUpdate3(c int8, taken bool) int8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > -4 {
		return c - 1
	}
	return c
}

func satUpdate2(c int8, taken bool) int8 {
	if taken {
		if c < 1 {
			return c + 1
		}
		return c
	}
	if c > -2 {
		return c - 1
	}
	return c
}

// PredictTarget predicts the target of a taken control transfer at pc. For
// returns it pops the RAS; for others it consults the BTB.
func (p *Predictor) PredictTarget(pc uint64, op isa.Op) (uint64, bool) {
	if op == isa.OpRet {
		if p.rsp > 0 {
			return p.ras[p.rsp-1], true
		}
		return 0, false
	}
	e := &p.btb[p.btbIndex(pc)]
	if e.valid && e.tag == pc {
		return e.target, true
	}
	return 0, false
}

func (p *Predictor) btbIndex(pc uint64) int {
	return int((pc >> 4) & uint64(len(p.btb)-1))
}

// Resolve is the single entry point the fetch model uses: it predicts a
// branch, immediately learns the actual outcome, and reports whether the
// front end would have redirected (direction or target misprediction).
func (p *Predictor) Resolve(pc uint64, op isa.Op, taken bool, target uint64, returnAddr uint64) (mispredicted bool) {
	p.Lookups++
	switch {
	case op.IsCondBranch():
		pred, provider := p.PredictDirection(pc)
		mis := pred != taken
		if !mis && taken {
			// Direction right; target must also be right (BTB).
			if t, ok := p.PredictTarget(pc, op); !ok || t != target {
				mis = true
				p.TargetMisses++
			}
		}
		p.Update(pc, taken, provider, pred != taken)
		p.trainBTB(pc, taken, target)
		if mis {
			p.Mispredicts++
		}
		return mis

	case op == isa.OpRet:
		t, ok := p.PredictTarget(pc, op)
		if p.rsp > 0 {
			p.rsp--
		}
		mis := !ok || t != target
		if mis {
			p.RASWrong++
			p.Mispredicts++
		} else {
			p.RASCorrect++
		}
		return mis

	case op == isa.OpCall || op == isa.OpCallR:
		// Push the return address.
		if p.rsp < len(p.ras) {
			p.ras[p.rsp] = returnAddr
			p.rsp++
		} else {
			// Overflow: overwrite top (circular would also be fine).
			p.ras[len(p.ras)-1] = returnAddr
		}
		if op == isa.OpCall {
			// Direct call: target known at decode; no misprediction.
			p.trainBTB(pc, true, target)
			return false
		}
		// Indirect call: BTB target prediction.
		t, ok := p.PredictTarget(pc, op)
		p.trainBTB(pc, true, target)
		mis := !ok || t != target
		if mis {
			p.Mispredicts++
			p.TargetMisses++
		}
		return mis

	default: // OpJmp: direct, target known at decode.
		p.trainBTB(pc, true, target)
		return false
	}
}

func (p *Predictor) trainBTB(pc uint64, taken bool, target uint64) {
	if !taken {
		return
	}
	e := &p.btb[p.btbIndex(pc)]
	e.valid, e.tag, e.target = true, pc, target
}

// Accuracy reports the fraction of resolved control transfers predicted
// correctly.
func (p *Predictor) Accuracy() float64 {
	if p.Lookups == 0 {
		return 1
	}
	return 1 - float64(p.Mispredicts)/float64(p.Lookups)
}
