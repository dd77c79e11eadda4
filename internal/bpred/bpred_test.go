package bpred

import (
	"math/rand"
	"testing"

	"rest/internal/isa"
)

func TestDefaultsApplied(t *testing.T) {
	p := New(Config{})
	if len(p.bimodal) != 1<<14 {
		t.Errorf("bimodal size = %d, want %d", len(p.bimodal), 1<<14)
	}
	if len(p.tables) != 12 {
		t.Errorf("tagged tables = %d, want 12", len(p.tables))
	}
	// History lengths are strictly increasing and span min..>=max-ish.
	for i := 1; i < len(p.hist); i++ {
		if p.hist[i].len <= p.hist[i-1].len {
			t.Fatalf("history lengths not increasing: %d then %d", p.hist[i-1].len, p.hist[i].len)
		}
	}
	if p.hist[0].len != 4 {
		t.Errorf("shortest history = %d, want 4", p.hist[0].len)
	}
}

// resolveLoop runs a synthetic branch stream and returns accuracy.
func resolveLoop(p *Predictor, n int, outcome func(i int) bool, pc uint64) float64 {
	misses := 0
	for i := 0; i < n; i++ {
		taken := outcome(i)
		target := pc + 0x100
		if p.Resolve(pc, isa.OpBeq, taken, target, pc+16) {
			misses++
		}
	}
	return 1 - float64(misses)/float64(n)
}

func TestAlwaysTakenLearned(t *testing.T) {
	p := New(Config{})
	acc := resolveLoop(p, 1000, func(int) bool { return true }, 0x400000)
	if acc < 0.98 {
		t.Errorf("always-taken accuracy = %f, want >= 0.98", acc)
	}
}

func TestAlternatingPatternLearned(t *testing.T) {
	p := New(Config{})
	// T,N,T,N... is beyond bimodal but trivial for short-history TAGE.
	acc := resolveLoop(p, 4000, func(i int) bool { return i%2 == 0 }, 0x400040)
	if acc < 0.95 {
		t.Errorf("alternating accuracy = %f, want >= 0.95", acc)
	}
}

func TestPeriodicPatternLearned(t *testing.T) {
	p := New(Config{})
	// Period-7 pattern: needs history correlation, impossible for bimodal.
	pat := []bool{true, true, false, true, false, false, true}
	acc := resolveLoop(p, 20000, func(i int) bool { return pat[i%len(pat)] }, 0x400080)
	if acc < 0.90 {
		t.Errorf("period-7 accuracy = %f, want >= 0.90", acc)
	}
}

func TestTAGEBeatsBimodalOnHistoryPattern(t *testing.T) {
	tage := New(Config{})
	bimodalOnly := New(Config{TaggedTables: 1, MinHistory: 4, MaxHistory: 5, TaggedBits: 2})
	pat := []bool{true, false, true, true, false, false, false, true}
	f := func(i int) bool { return pat[i%len(pat)] }
	accT := resolveLoop(tage, 20000, f, 0x400100)
	accB := resolveLoop(bimodalOnly, 20000, f, 0x400100)
	if accT <= accB {
		t.Errorf("TAGE accuracy %f not better than near-bimodal %f", accT, accB)
	}
}

func TestRandomBranchesNearChance(t *testing.T) {
	p := New(Config{})
	r := rand.New(rand.NewSource(1))
	acc := resolveLoop(p, 10000, func(int) bool { return r.Intn(2) == 0 }, 0x400200)
	if acc > 0.65 {
		t.Errorf("random-branch accuracy = %f, suspiciously high", acc)
	}
	if acc < 0.35 {
		t.Errorf("random-branch accuracy = %f, suspiciously low", acc)
	}
}

func TestCallReturnRAS(t *testing.T) {
	p := New(Config{})
	callPC := uint64(0x400000)
	retPC := uint64(0x500000)
	fnAddr := uint64(0x500000 - 0x100)
	// call/ret pairs: after warmup, returns should be RAS-predicted.
	for i := 0; i < 100; i++ {
		ra := callPC + 16
		if p.Resolve(callPC, isa.OpCall, true, fnAddr, ra) {
			t.Fatal("direct call mispredicted")
		}
		if mis := p.Resolve(retPC, isa.OpRet, true, ra, 0); mis && i > 0 {
			t.Fatalf("return %d mispredicted", i)
		}
	}
	if p.RASCorrect < 99 {
		t.Errorf("RASCorrect = %d, want >= 99", p.RASCorrect)
	}
}

func TestNestedCallsRAS(t *testing.T) {
	p := New(Config{})
	// Simulate depth-8 nesting repeatedly.
	for rep := 0; rep < 20; rep++ {
		var ras []uint64
		for d := 0; d < 8; d++ {
			pc := uint64(0x400000 + d*0x1000)
			ra := pc + 16
			ras = append(ras, ra)
			p.Resolve(pc, isa.OpCall, true, pc+0x800, ra)
		}
		for d := 7; d >= 0; d-- {
			pc := uint64(0x600000 + d*0x1000)
			mis := p.Resolve(pc, isa.OpRet, true, ras[d], 0)
			if rep > 0 && mis {
				t.Fatalf("rep %d depth %d return mispredicted", rep, d)
			}
		}
	}
}

func TestDirectJumpNeverMispredicts(t *testing.T) {
	p := New(Config{})
	for i := 0; i < 10; i++ {
		if p.Resolve(0x400000, isa.OpJmp, true, 0x400100, 0) {
			t.Fatal("direct jump mispredicted")
		}
	}
}

func TestIndirectCallLearnsTarget(t *testing.T) {
	p := New(Config{})
	pc, tgt := uint64(0x400300), uint64(0x410000)
	first := p.Resolve(pc, isa.OpCallR, true, tgt, pc+16)
	if !first {
		t.Error("cold indirect call predicted correctly, want miss")
	}
	for i := 0; i < 5; i++ {
		p.Resolve(uint64(0x600000+i*0x1000), isa.OpRet, true, pc+16, 0) // drain RAS pushes
	}
	if p.Resolve(pc, isa.OpCallR, true, tgt, pc+16) {
		t.Error("warm indirect call mispredicted")
	}
}

func TestAccuracyStat(t *testing.T) {
	p := New(Config{})
	if p.Accuracy() != 1 {
		t.Error("empty predictor accuracy != 1")
	}
	resolveLoop(p, 100, func(int) bool { return true }, 0x400000)
	if p.Lookups != 100 {
		t.Errorf("Lookups = %d, want 100", p.Lookups)
	}
	if a := p.Accuracy(); a < 0 || a > 1 {
		t.Errorf("Accuracy = %f out of range", a)
	}
}

func TestFoldedHistoryBounded(t *testing.T) {
	p := New(Config{})
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		p.pushHistory(r.Intn(2) == 0)
	}
	for t1, h := range p.hist {
		if h.idx >= 1<<uint(p.cfg.TaggedBits) {
			t.Fatalf("folded index %d overflowed: %#x", t1, h.idx)
		}
		if h.tag0 >= 1<<uint(p.cfg.TagWidth) {
			t.Fatalf("folded tag %d overflowed: %#x", t1, h.tag0)
		}
		if h.tag1 >= 1<<uint(p.cfg.TagWidth-1) {
			t.Fatalf("second folded tag %d overflowed: %#x", t1, h.tag1)
		}
	}
}

// foldFromScratch folds the last n outcomes of hist (hist[0] the newest)
// into width bits: outcome a lands on bit a mod width.
func foldFromScratch(hist []bool, n int, width uint32) uint32 {
	var f uint32
	for a := 0; a < n && a < len(hist); a++ {
		if hist[a] {
			f ^= 1 << (uint32(a) % width)
		}
	}
	return f
}

// TestFoldedHistoryOracle checks every incrementally maintained fold
// against the same fold recomputed from the raw outcome sequence, after
// every one of 12k random branches, both under the defaults (where the
// second tag fold shares the index fold's register) and under a geometry
// where the two differ.
func TestFoldedHistoryOracle(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{TaggedBits: 9, TagWidth: 13, TaggedTables: 7, MinHistory: 3, MaxHistory: 300},
	} {
		p := New(cfg)
		if cfg.TaggedBits != 0 && p.tag1IsIdx {
			t.Fatalf("config %+v: second tag fold should be its own register", cfg)
		}
		r := rand.New(rand.NewSource(7))
		var hist []bool // newest first
		for i := 0; i < 12000; i++ {
			taken := r.Intn(3) != 0
			p.pushHistory(taken)
			hist = append([]bool{taken}, hist...)
			if len(hist) > p.cfg.MaxHistory+1 {
				hist = hist[:p.cfg.MaxHistory+1]
			}
			for ti, h := range p.hist {
				tag1 := h.tag1
				if p.tag1IsIdx {
					tag1 = h.idx
				}
				for _, f := range []struct {
					name  string
					got   uint32
					width uint32
				}{
					{"index", h.idx, p.idxBits},
					{"tag", h.tag0, p.tagBits},
					{"second tag", tag1, p.tag1Bits},
				} {
					if f.got >= 1<<f.width {
						t.Fatalf("branch %d table %d: %s fold %#x wider than %d bits", i, ti, f.name, f.got, f.width)
					}
					if want := foldFromScratch(hist, h.len, f.width); f.got != want {
						t.Fatalf("config %+v branch %d table %d (len %d): %s fold = %#x, from scratch %#x",
							cfg, i, ti, h.len, f.name, f.got, want)
					}
				}
			}
		}
	}
}
