package sat

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
)

// checkArena verifies the clause arena's bookkeeping: both lists strictly
// in arena order with the right learnt bit, every arena word accounted
// for as a live clause or waste, exactly two watchers per live clause on
// the negations of its first two literals, carrying binTag exactly when
// the clause is binary (and then blocked by the clause's other literal),
// and every reason a live clause containing the literal it implies.
func checkArena(t *testing.T, s *Solver) {
	t.Helper()
	live := map[cref]bool{}
	words := s.wasted
	for _, list := range []struct {
		crs    []cref
		learnt Lit
	}{{s.clauses, 0}, {s.learnts, 1}} {
		for k, cr := range list.crs {
			if k > 0 && cr <= list.crs[k-1] {
				t.Fatalf("clause list out of arena order at %d: %d after %d", k, cr, list.crs[k-1])
			}
			if s.ca[cr]&1 != list.learnt {
				t.Fatalf("clause %d: learnt bit %d, want %d", cr, s.ca[cr]&1, list.learnt)
			}
			if len(s.clauseLits(cr)) < 2 {
				t.Fatalf("clause %d has %d literals", cr, len(s.clauseLits(cr)))
			}
			live[cr] = true
			words += int(list.learnt)*2 + 1 + len(s.clauseLits(cr))
		}
	}
	if words != len(s.ca) {
		t.Fatalf("live clauses and waste cover %d arena words, arena has %d", words, len(s.ca))
	}
	watchers := map[cref]int{}
	for l, ws := range s.watches {
		for _, w := range ws {
			cr := w.cr &^ binTag
			if !live[cr] {
				t.Fatalf("watcher on literal %d references dead clause %d", l, cr)
			}
			lits := s.clauseLits(cr)
			if lits[0].Neg() != Lit(l) && lits[1].Neg() != Lit(l) {
				t.Fatalf("clause %d %v watched on literal %d", cr, lits, l)
			}
			if tagged := w.cr&binTag != 0; tagged != (len(lits) == 2) {
				t.Fatalf("watcher of %d-literal clause %d on literal %d: binary tag %v", len(lits), cr, l, tagged)
			}
			if other := lits[0] ^ lits[1] ^ Lit(l).Neg(); len(lits) == 2 && w.blocker != other {
				t.Fatalf("binary clause %d %v watched on literal %d has blocker %d, want %d", cr, lits, l, w.blocker, other)
			}
			watchers[cr]++
		}
	}
	for cr := range live {
		if watchers[cr] != 2 {
			t.Fatalf("clause %d has %d watchers, want 2", cr, watchers[cr])
		}
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != crefUndef && (!live[r] || !slices.Contains(s.clauseLits(r), l)) {
			t.Fatalf("reason %d of trail literal %d is not a live clause containing it", r, l)
		}
	}
}

// TestArenaCompaction runs the pinned phase-transition instance
// (TestTrajectoryRandom3SAT) one restart round at a time and checks the
// arena after every round. reduceDB must have compacted it along the way:
// only a compaction shrinks the arena.
func TestArenaCompaction(t *testing.T) {
	s := newRandom3SAT()
	st := s.newStepper(nil)
	compactions, prevLen := 0, 0
	for st.step() == Unknown {
		checkArena(t, s)
		if len(s.ca) < prevLen {
			compactions++
		}
		prevLen = len(s.ca)
	}
	checkArena(t, s)
	if compactions == 0 {
		t.Fatal("the search never compacted the arena")
	}
}

// TestGarbageCollectTrajectoryNeutral runs one incremental,
// assumption-heavy sequence twice, the second time forcing a compaction
// after every Solve call. Verdicts, final conflicts, models and search
// counters must be identical: compaction moves clauses, never reorders
// them. Long clauses over separate padding variables enlarge the problem
// part of the arena, so reduceDB's waste often stays under the compaction
// threshold and the forced compactions have something to reclaim.
func TestGarbageCollectTrajectoryNeutral(t *testing.T) {
	run := func(force bool) (log []string, counters [3]int64, shrunk int) {
		const nVars = 150
		r := rng.New(11)
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		for _, cl := range randomCNF(r, nVars, 590) {
			s.AddClause(cl...)
		}
		pad := s.NumVars()
		for i := 0; i < 500; i++ {
			s.NewVar()
		}
		for i := 0; i < 500; i++ {
			cl := []Lit{MkLit(pad+i, true)}
			for j := 1; j < 120; j++ {
				cl = append(cl, MkLit(pad+(i+j)%500, false))
			}
			s.AddClause(cl...)
		}
		acts := make([]Lit, 12)
		for i := range acts {
			acts[i] = MkLit(s.NewVar(), false)
			for j := 0; j < 5; j++ {
				s.AddClause(acts[i].Neg(), MkLit(r.Intn(nVars), r.Bool()), MkLit(r.Intn(nVars), r.Bool()))
			}
		}
		for call := 0; call < 80; call++ {
			var assumps []Lit
			for k := 1 + r.Intn(4); k > 0; k-- {
				assumps = append(assumps, acts[r.Intn(len(acts))])
			}
			if r.Chance(1, 3) {
				assumps = append(assumps, MkLit(r.Intn(nVars), r.Bool()))
			}
			s.Budget = 0
			if r.Chance(1, 5) {
				s.Budget = 20
			}
			res := s.Solve(assumps...)
			entry := fmt.Sprintf("%v %v", res, s.Conflict())
			if res == Sat {
				var m strings.Builder
				for v := 0; v < s.NumVars(); v++ {
					m.WriteByte("01"[btoi(s.Value(v))])
				}
				entry += " " + m.String()
			}
			log = append(log, entry)
			if force {
				before := len(s.ca)
				s.garbageCollect()
				checkArena(t, s)
				if len(s.ca) < before {
					shrunk++
				}
			}
		}
		return log, [3]int64{s.Conflicts, s.Decisions, s.Propagations}, shrunk
	}
	wantLog, wantCounters, _ := run(false)
	gotLog, gotCounters, shrunk := run(true)
	if shrunk == 0 {
		t.Fatal("no forced compaction reclaimed space; the sequence never ran reduceDB")
	}
	for i := range wantLog {
		if gotLog[i] != wantLog[i] {
			t.Fatalf("call %d: forced compaction gives %q, unforced %q", i, gotLog[i], wantLog[i])
		}
	}
	if gotCounters != wantCounters {
		t.Fatalf("counters with forced compaction %v, without %v", gotCounters, wantCounters)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
