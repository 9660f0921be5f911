package shadow

import (
	"reflect"
	"testing"

	"literace/internal/lir"
)

type raceRec struct {
	prev Prev
	cur  Access
	sub  int
}

func collectRaces(opts Options) (*Engine, *[]raceRec) {
	races := &[]raceRec{}
	opts.OnRace = func(prev Prev, cur *Access, sub int) {
		*races = append(*races, raceRec{prev: prev, cur: *cur, sub: sub})
	}
	return NewEngine(opts), races
}

func acc(addr uint64, tid int32, write bool, seq uint64, vc []uint64) *Access {
	return &Access{
		Addr: addr, Seq: seq, TID: tid, Write: write,
		PC: lir.PC{Func: tid, Index: int32(seq)}, VC: vc,
	}
}

func TestEngineWriteReadRace(t *testing.T) {
	e, races := collectRaces(Options{})
	// T0 writes at clock 1; T1 reads without having synchronized: T1's
	// view of T0 is 0 < 1, so the pair is unordered.
	e.Access(acc(0x8, 0, true, 1, []uint64{1}))
	e.Access(acc(0x8, 1, false, 1, []uint64{0, 1}))
	if len(*races) != 1 {
		t.Fatalf("races = %d, want 1", len(*races))
	}
	r := (*races)[0]
	if !r.prev.Write || r.cur.Write || r.prev.TID != 0 || r.cur.TID != 1 || r.sub != 0 {
		t.Fatalf("unexpected race %+v", r)
	}
	// An ordered read (T1 saw T0's clock) must not race.
	e2, races2 := collectRaces(Options{})
	e2.Access(acc(0x8, 0, true, 1, []uint64{1}))
	e2.Access(acc(0x8, 1, false, 1, []uint64{1, 1}))
	if len(*races2) != 0 {
		t.Fatalf("ordered pair raced: %+v", *races2)
	}
}

func TestEnginePromotionAndReadShareOrder(t *testing.T) {
	e, races := collectRaces(Options{})
	// Two concurrent readers force a promotion; an unordered write then
	// races both, in first-read order.
	e.Access(acc(0x8, 0, false, 1, []uint64{1}))
	if s := e.Stats(); s.Promotions != 0 {
		t.Fatalf("promotion before a second reader: %+v", s)
	}
	e.Access(acc(0x8, 1, false, 1, []uint64{0, 1}))
	if s := e.Stats(); s.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", s.Promotions)
	}
	// A third reader joins the promoted list, no further promotion.
	e.Access(acc(0x8, 2, false, 1, []uint64{0, 0, 1}))
	if s := e.Stats(); s.Promotions != 1 {
		t.Fatalf("promotions = %d after third reader, want 1", s.Promotions)
	}
	e.Access(acc(0x8, 3, true, 1, []uint64{0, 0, 0, 1}))
	if len(*races) != 3 {
		t.Fatalf("races = %d, want 3", len(*races))
	}
	for i, wantTID := range []int32{0, 1, 2} {
		r := (*races)[i]
		if r.prev.TID != wantTID || r.sub != i || r.prev.Write || !r.cur.Write {
			t.Fatalf("race %d: %+v, want prev tid %d sub %d", i, r, wantTID, i)
		}
	}
	// The write cleared the read set: a new same-thread write is silent.
	e.Access(acc(0x8, 3, true, 2, []uint64{0, 0, 0, 2}))
	if len(*races) != 3 {
		t.Fatalf("write after clearing raced: %d", len(*races))
	}
}

func TestEngineSameThreadReadReplacesInPlace(t *testing.T) {
	e, races := collectRaces(Options{})
	e.Access(acc(0x8, 0, false, 1, []uint64{1}))
	e.Access(acc(0x8, 1, false, 1, []uint64{0, 1})) // promote
	e.Access(acc(0x8, 0, false, 2, []uint64{2}))    // T0 reads again: replace, keep position
	e.Access(acc(0x8, 2, true, 1, []uint64{0, 0, 1}))
	if len(*races) != 2 {
		t.Fatalf("races = %d, want 2", len(*races))
	}
	// First-read order preserved: T0 (with its NEWER seq) before T1.
	if (*races)[0].prev.TID != 0 || (*races)[0].prev.Seq != 2 {
		t.Fatalf("race 0 = %+v, want T0 seq 2 first", (*races)[0])
	}
	if (*races)[1].prev.TID != 1 {
		t.Fatalf("race 1 = %+v, want T1 second", (*races)[1])
	}
}

func TestEngineFastpathCounting(t *testing.T) {
	e, _ := collectRaces(Options{})
	vc := []uint64{1}
	// Virgin write, then repeated owned writes: all fast.
	e.Access(acc(0x8, 0, true, 1, vc))
	e.Access(acc(0x8, 0, true, 2, vc))
	e.Access(acc(0x8, 0, false, 3, vc)) // owned read after own write: fast
	s := e.Stats()
	if s.FastpathHits != 3 || s.Accesses != 3 {
		t.Fatalf("stats = %+v, want 3/3 fast", s)
	}
	// A cross-thread access needs a comparison: not fast.
	e.Access(acc(0x8, 1, false, 1, []uint64{1, 1}))
	s = e.Stats()
	if s.FastpathHits != 3 || s.Accesses != 4 {
		t.Fatalf("stats after cross read = %+v", s)
	}
}

func TestEngineOrderedCallback(t *testing.T) {
	var pairs [][2]lir.PC
	var margins []uint64
	e := NewEngine(Options{OnOrdered: func(a, b lir.PC, m uint64) {
		pairs = append(pairs, [2]lir.PC{a, b})
		margins = append(margins, m)
	}})
	e.Access(acc(0x8, 0, true, 1, []uint64{3}))
	// T1 has seen T0 up to clock 5: ordered with slack 5-3 = 2.
	e.Access(acc(0x8, 1, false, 1, []uint64{5, 1}))
	if len(pairs) != 1 || margins[0] != 2 {
		t.Fatalf("ordered callbacks = %v margins = %v", pairs, margins)
	}
}

func TestEngineDepotInternsRaceIdentities(t *testing.T) {
	e, _ := collectRaces(Options{})
	for i := 0; i < 3; i++ {
		// Same static pair three times: one identity.
		e.Access(&Access{Addr: 0x8, Seq: uint64(2*i + 1), TID: 0, Write: true,
			PC: lir.PC{Func: 1, Index: 1}, VC: []uint64{1}})
		e.Access(&Access{Addr: 0x8, Seq: uint64(2*i + 2), TID: 1, Write: true,
			PC: lir.PC{Func: 2, Index: 2}, VC: []uint64{0, 1}})
	}
	if n := e.Depot().Len(); n != 1 {
		t.Fatalf("depot holds %d identities, want 1", n)
	}
	frames, ok := e.Depot().Frames(e.Depot().IDs()[0])
	if !ok {
		t.Fatal("identity not decodable")
	}
	want := []Frame{
		{PC: lir.PC{Func: 1, Index: 1}, Write: true},
		{PC: lir.PC{Func: 2, Index: 2}, Write: true},
	}
	if !reflect.DeepEqual(frames, want) {
		t.Fatalf("frames = %+v, want %+v", frames, want)
	}
}
