package smt

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sat"
)

// TestPortfolioCanonicalBitIdentity: on queries the canonical leg can
// decide, Portfolio.Check must be byte-identical to Checker.Check —
// same verdict, same model, alternates never engaged. This is the
// portfolio's zero-overhead contract for the overwhelming majority of
// queries.
func TestPortfolioCanonicalBitIdentity(t *testing.T) {
	r := rng.New(991)
	for trial := 0; trial < 60; trial++ {
		b := NewBuilder()
		w := 3 + r.Intn(8)
		vars := []*Term{b.Var(w, "x"), b.Var(w, "y")}
		formula := b.Eq(buildRandomTerm(b, r, vars, 3), buildRandomTerm(b, r, vars, 3))

		var c Checker
		wantRes, wantM := c.Check(formula)
		p := Portfolio{Configs: PortfolioConfigs(3)}
		gotRes, gotM := p.Check(formula)

		if gotRes != wantRes {
			t.Fatalf("trial %d: portfolio=%v checker=%v for %s", trial, gotRes, wantRes, formula)
		}
		if p.LastRaced {
			t.Fatalf("trial %d: unbudgeted decided query engaged the alternates", trial)
		}
		if wantRes == Sat {
			if len(gotM) != len(wantM) {
				t.Fatalf("trial %d: model sizes differ: portfolio %v, checker %v", trial, gotM, wantM)
			}
			for name, v := range wantM {
				if gotM[name] != v {
					t.Fatalf("trial %d: model[%s] = %d, checker has %d", trial, name, gotM[name], v)
				}
			}
		}
	}
}

// distributivityQuery is an Unsat refutation (x*(y+1) != x*y + x) that
// needs a real CDCL proof — hash-consing cannot collapse it. At width 6
// the proof costs ~2.5k conflicts, comfortably beyond a tens-of-conflicts
// budget yet milliseconds for a rescuing alternate (the cost roughly
// squares per added bit, so keep the width small).
func distributivityQuery(w int) *Term {
	b := NewBuilder()
	x := b.Var(w, "x")
	y := b.Var(w, "y")
	return b.Ne(
		b.Mul(x, b.Add(y, b.Const(w, 1))),
		b.Add(b.Mul(x, y), x),
	)
}

// TestPortfolioRescuesBudgetUnknown is the race's reason to exist: a
// query the canonical schedule abandons at its budget is proved Unsat by
// an alternate, the winner index names the proving configuration, and
// the whole outcome is deterministic.
func TestPortfolioRescuesBudgetUnknown(t *testing.T) {
	const budget = 40
	f := distributivityQuery(6)

	// Precondition: the canonical configuration alone is budget-bound.
	solo := Portfolio{Configs: PortfolioConfigs(1), ConflictBudget: budget}
	if res, _ := solo.Check(f); res != Unknown {
		t.Skipf("canonical leg decided within %d conflicts (%v); rescue path not exercised", budget, res)
	}

	run := func() (Result, *Portfolio) {
		p := &Portfolio{
			Configs:         PortfolioConfigs(6),
			ConflictBudget:  budget,
			AlternateBudget: 1 << 30,
		}
		res, m := p.Check(f)
		if m != nil {
			t.Fatalf("non-Sat verdict carried a model")
		}
		return res, p
	}

	res1, p1 := run()
	if res1 != Unsat {
		t.Fatalf("portfolio verdict = %v, want Unsat rescue", res1)
	}
	if !p1.LastRaced || p1.LastWinner < 1 {
		t.Fatalf("rescue bookkeeping: raced=%v winner=%d, want raced by an alternate", p1.LastRaced, p1.LastWinner)
	}

	res2, p2 := run()
	if res2 != res1 || p2.LastWinner != p1.LastWinner ||
		p2.LastConflicts != p1.LastConflicts || p2.LastPropagations != p1.LastPropagations {
		t.Fatalf("race not deterministic: run1 winner=%d conflicts=%d props=%d, run2 winner=%d conflicts=%d props=%d",
			p1.LastWinner, p1.LastConflicts, p1.LastPropagations,
			p2.LastWinner, p2.LastConflicts, p2.LastPropagations)
	}
}

// TestPortfolioAllLegsExhausted: when every alternate is budget-bound
// too, the canonical Unknown stands and no winner is claimed. The query
// is distributivity at width 10 — Unsat, but orders of magnitude beyond
// what any leg's single pre-budget-check restart round can prove — so no
// leg can decide and every one must hit the 10-conflict boundary.
func TestPortfolioAllLegsExhausted(t *testing.T) {
	f := distributivityQuery(10)
	p := Portfolio{Configs: PortfolioConfigs(4), ConflictBudget: 10, AlternateBudget: 10}
	res, _ := p.Check(f)
	if res != Unknown {
		t.Fatalf("verdict = %v, want Unknown from a fully exhausted race", res)
	}
	if !p.LastRaced || p.LastWinner != -1 {
		t.Fatalf("exhausted race bookkeeping: raced=%v winner=%d, want raced with no winner", p.LastRaced, p.LastWinner)
	}
	if p.LastConflicts == 0 {
		t.Fatal("race reported zero total conflicts; effort accounting is broken")
	}
}

// TestPortfolioConfigsLadder: any prefix of the ladder is itself a valid
// portfolio — Configs[0] is always the canonical zero configuration and
// the alternates keep their order (winner indices must mean the same
// thing at every k).
func TestPortfolioConfigsLadder(t *testing.T) {
	full := PortfolioConfigs(6)
	if full[0] != (sat.Config{}) {
		t.Fatalf("ladder rung 0 = %+v, want the canonical zero configuration", full[0])
	}
	for k := 1; k <= 6; k++ {
		prefix := PortfolioConfigs(k)
		if len(prefix) != k {
			t.Fatalf("PortfolioConfigs(%d) returned %d rungs", k, len(prefix))
		}
		for i := range prefix {
			if prefix[i] != full[i] {
				t.Fatalf("ladder rung %d differs at k=%d: %+v vs %+v", i, k, prefix[i], full[i])
			}
		}
	}
	if got := PortfolioConfigs(100); len(got) != len(full) {
		t.Fatalf("oversized k returned %d rungs, want the full ladder (%d)", len(got), len(full))
	}
	if got := PortfolioConfigs(0); len(got) != 1 {
		t.Fatalf("k=0 returned %d rungs, want the canonical singleton", len(got))
	}
}

// raceTrace describes how the round-robin reference schedule ended, so
// the oracle test can require that every way of ending is covered.
type raceTrace struct {
	// winnerRound is the round in which an alternate decided (-1 if
	// none did); earlierRunning reports that an alternate before the
	// deciding one ran that round and stayed within budget.
	winnerRound    int
	earlierRunning bool
	altSat         bool
	// exhausted[j] is the round after which alternate j ran out of
	// budget (-1 if it never did).
	exhausted []int
}

// sequentialCheck is the reference schedule for Portfolio.Check's race:
// the alternates step one restart round each, round-robin in index
// order, on the calling goroutine, and the first decision ends the race.
// It fills in p's Last* fields exactly as Check must.
func sequentialCheck(p *Portfolio, formula *Term) (Result, Model, raceTrace) {
	p.LastConflicts, p.LastPropagations, p.LastVars = 0, 0, 0
	p.LastWinner, p.LastRaced = -1, false
	tr := raceTrace{winnerRound: -1}
	if formula.IsTrue() {
		return Sat, Model{}, tr
	}
	if formula.IsFalse() {
		return Unsat, nil, tr
	}
	vars := Vars(formula)
	legs := []*leg{newLeg(p.Configs[0], formula, vars, nil)}
	canon := legs[0]
	p.LastVars = canon.s.NumVars()
	finish := func(res Result, winner int) (Result, Model, raceTrace) {
		for _, l := range legs {
			p.LastConflicts += l.s.Conflicts
			p.LastPropagations += l.s.Propagations
		}
		p.LastWinner = winner
		if res != Sat {
			return res, nil, tr
		}
		m := make(Model, len(vars))
		for _, v := range vars {
			m[v.Name] = canon.bl.ModelValue(v)
		}
		return Sat, m, tr
	}

	for {
		res, running := canon.step(p.ConflictBudget)
		switch res {
		case sat.Sat:
			return finish(Sat, 0)
		case sat.Unsat:
			return finish(Unsat, 0)
		}
		if !running {
			break
		}
	}
	if len(p.Configs) < 2 {
		return finish(Unknown, -1)
	}

	altBudget := p.AlternateBudget
	if altBudget == 0 {
		altBudget = p.ConflictBudget
	}
	p.LastRaced = true
	alive := make([]bool, len(p.Configs)-1)
	tr.exhausted = make([]int, len(alive))
	for j, cfg := range p.Configs[1:] {
		legs = append(legs, newLeg(cfg, formula, vars, nil))
		alive[j] = true
		tr.exhausted[j] = -1
	}
	for round := 0; ; round++ {
		anyAlive := false
		for j, l := range legs[1:] {
			if !alive[j] {
				continue
			}
			res, running := l.step(altBudget)
			switch res {
			case sat.Unsat:
				tr.winnerRound, tr.earlierRunning = round, anyAlive
				return finish(Unsat, j+1)
			case sat.Sat:
				tr.winnerRound, tr.altSat = round, true
				return finish(Unknown, -1)
			}
			if !running {
				alive[j] = false
				tr.exhausted[j] = round
				continue
			}
			anyAlive = true
		}
		if !anyAlive {
			return finish(Unknown, -1)
		}
	}
}

// raceStats are a Portfolio's Last* fields.
type raceStats struct {
	conflicts, propagations int64
	vars, winner            int
	raced                   bool
}

func lastStats(p *Portfolio) raceStats {
	return raceStats{p.LastConflicts, p.LastPropagations, p.LastVars, p.LastWinner, p.LastRaced}
}

// soloRounds is alternate cfg's trajectory run alone: its effort after
// construction and after each restart round, up to its decision or the
// end of its budget. A racing leg's record must be a prefix of it.
func soloRounds(cfg sat.Config, formula *Term, budget int64) []effort {
	l := newLeg(cfg, formula, Vars(formula), nil)
	rounds := []effort{l.effort()}
	for {
		_, running := l.step(budget)
		rounds = append(rounds, l.effort())
		if !running {
			return rounds
		}
	}
}

// checkRoundRecords requires every alternate's recorded rounds to be
// true round boundaries of its solo trajectory: an interrupted round,
// which stops at a wall-clock moment, must never be recorded.
func checkRoundRecords(t *testing.T, what string, race *Race, solo [][]effort) {
	t.Helper()
	for j := range race.alts {
		got := race.alts[j].rounds
		if len(got) > len(solo[j]) || !reflect.DeepEqual(got, solo[j][:len(got)]) {
			t.Fatalf("%s: alternate %d recorded rounds %v, not a prefix of its solo trajectory %v", what, j+1, got, solo[j])
		}
	}
}

// waitGoroutines requires the goroutine count to come back to baseline:
// every leg must have returned once Wait or Cancel has. A leg signals
// its end from a deferred call, so it may take a moment to disappear.
func waitGoroutines(t *testing.T, what string, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines still running, baseline %d", what, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPortfolioRaceMatchesSequentialSchedule: the concurrent race must
// give exactly what the round-robin schedule gives — verdict, model,
// winner, and the effort counted up to the deciding round — whatever
// order the legs' goroutines run in. Besides the standard ladder, each
// query races a fast ladder (restart units cut tenfold) whose legs
// decide and run out of budget many rounds in. The cases must cover
// every way a race ends: a rescue by the first alternate, a rescue by a
// later one in a round where an earlier one is still running, an
// alternate Sat, every leg out of budget, and legs running out of
// budget in different rounds.
//
// Every case runs Check, Start then Wait after a random delay, and
// Start then Cancel after a random delay, at GOMAXPROCS 1 and 4. After
// each call every leg must have returned, and every round an alternate
// recorded must be a true round of its solo trajectory.
func TestPortfolioRaceMatchesSequentialSchedule(t *testing.T) {
	var queries []*Term
	for _, w := range []int{4, 5} {
		queries = append(queries, distributivityQuery(w))
	}
	r := rng.New(4242)
	for i := 0; i < 24; i++ {
		b := NewBuilder()
		w := 6 + r.Intn(7)
		vars := []*Term{b.Var(w, "x"), b.Var(w, "y")}
		queries = append(queries, b.Eq(buildRandomTerm(b, r, vars, 4), buildRandomTerm(b, r, vars, 4)))
	}
	fast := func(k int) []sat.Config {
		cfgs := PortfolioConfigs(k)
		for i := 1; i < k; i++ {
			cfgs[i].RestartBase /= 10
		}
		return cfgs
	}
	ladders := []func(int) []sat.Config{PortfolioConfigs, fast}
	budgets := [][2]int64{{1, 1}, {1, 600}}
	delay := func() time.Duration { return time.Duration(r.Intn(400)) * time.Microsecond }

	seen := map[string]bool{}
	for qi, f := range queries {
		for li, ladder := range ladders {
			for k := 2; k <= 6; k++ {
				for _, bud := range budgets {
					ref := Portfolio{Configs: ladder(k), ConflictBudget: bud[0], AlternateBudget: bud[1]}
					wantRes, wantM, tr := sequentialCheck(&ref, f)
					if !ref.LastRaced {
						continue
					}
					switch {
					case wantRes == Unsat && ref.LastWinner == 1:
						seen["rescue by leg 1"] = true
					case wantRes == Unsat && tr.earlierRunning:
						seen["rescue by a later leg"] = true
					case tr.altSat:
						seen["alternate Sat"] = true
					case tr.winnerRound < 0:
						seen["every leg out of budget"] = true
					}
					exhaustedIn := map[int]bool{}
					for _, e := range tr.exhausted {
						if e >= 0 {
							exhaustedIn[e] = true
						}
					}
					if len(exhaustedIn) > 1 {
						seen["out of budget in different rounds"] = true
					}
					var solo [][]effort
					for _, cfg := range ref.Configs[1:] {
						solo = append(solo, soloRounds(cfg, f, bud[1]))
					}
					for _, procs := range []int{1, 4} {
						prev := runtime.GOMAXPROCS(procs)
						where := fmt.Sprintf("query %d, ladder %d, k=%d, budgets %v, GOMAXPROCS %d", qi, li, k, bud, procs)
						check := func(how string, gotRes Result, gotM Model, got *Portfolio) {
							if gotRes != wantRes || !reflect.DeepEqual(gotM, wantM) || lastStats(got) != lastStats(&ref) {
								t.Fatalf("%s, %s: race gave %v %v %+v, sequential schedule %v %v %+v",
									where, how, gotRes, gotM, lastStats(got), wantRes, wantM, lastStats(&ref))
							}
						}
						baseline := runtime.NumGoroutine()

						got := Portfolio{Configs: ref.Configs, ConflictBudget: ref.ConflictBudget, AlternateBudget: ref.AlternateBudget}
						gotRes, gotM := got.Check(f)
						check("Check", gotRes, gotM, &got)
						waitGoroutines(t, where+", Check", baseline)

						race := got.Start(f)
						time.Sleep(delay())
						gotRes, gotM = race.Wait()
						check("Start, delay, Wait", gotRes, gotM, &got)
						checkRoundRecords(t, where+", Start, delay, Wait", race, solo)
						waitGoroutines(t, where+", Start, delay, Wait", baseline)

						race = got.Start(f)
						time.Sleep(delay())
						race.Cancel()
						if res, m := race.Wait(); res != Unknown || m != nil || lastStats(&got) != (raceStats{winner: -1}) {
							t.Fatalf("%s: a cancelled race reported %v %v %+v", where, res, m, lastStats(&got))
						}
						waitGoroutines(t, where+", Start, delay, Cancel", baseline)
						runtime.GOMAXPROCS(prev)
					}
				}
			}
		}
	}
	for _, c := range []string{"rescue by leg 1", "rescue by a later leg", "alternate Sat", "every leg out of budget", "out of budget in different rounds"} {
		if !seen[c] {
			t.Errorf("no case covered %q", c)
		}
	}
}

// TestPortfolioCancelDuringRace: cancelling a race whose alternates are
// running interrupts them all and returns with no leg left behind, at
// any point of the race.
func TestPortfolioCancelDuringRace(t *testing.T) {
	f := distributivityQuery(10) // far beyond every leg's budget
	r := rng.New(77)
	for i := 0; i < 40; i++ {
		baseline := runtime.NumGoroutine()
		p := Portfolio{Configs: PortfolioConfigs(6), ConflictBudget: 1, AlternateBudget: 1 << 30}
		race := p.Start(f)
		// Wait would block until some leg ends; start the alternates as
		// Wait does, then cancel mid-race.
		race.startAlternates()
		time.Sleep(time.Duration(r.Intn(3000)) * time.Microsecond)
		race.Cancel()
		for j := range race.alts {
			if res := race.alts[j].res; res != sat.Unknown {
				t.Fatalf("cancel %d: alternate %d decided %v on a query no leg can afford", i, j+1, res)
			}
		}
		waitGoroutines(t, fmt.Sprintf("cancel %d", i), baseline)
	}
}
