package sat_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/sat"
	"repro/internal/smt"
)

// TestStopEndsSearchWithinOneConflict: a raised Stop ends the search at
// the next conflict, whether it is raised before the search starts or
// between restart rounds, and the interrupted search reports Unknown,
// stays done, and says it was interrupted.
func TestStopEndsSearchWithinOneConflict(t *testing.T) {
	for _, rounds := range []int{0, 1, 3} {
		s := sat.New()
		addPHP(s, 8)
		var stop atomic.Bool
		s.Stop = &stop
		st := s.Stepper(nil)
		for i := 0; i < rounds; i++ {
			if res := st.Step(); res != sat.Unknown || st.Interrupted() {
				t.Fatalf("round %d: %v (interrupted %v) before Stop was raised", i, res, st.Interrupted())
			}
		}
		before := s.Conflicts
		stop.Store(true)
		if res := st.Step(); res != sat.Unknown {
			t.Fatalf("after %d rounds: interrupted round returned %v", rounds, res)
		}
		if !st.Interrupted() || !st.Done() {
			t.Fatalf("after %d rounds: interrupted=%v done=%v, want both", rounds, st.Interrupted(), st.Done())
		}
		if got := s.Conflicts - before; got != 1 {
			t.Fatalf("after %d rounds: the interrupted round ran %d conflicts, want 1", rounds, got)
		}
		if res := st.Step(); res != sat.Unknown || s.Conflicts-before != 1 {
			t.Fatalf("a Step after the interrupt searched on: %v, %d conflicts", res, s.Conflicts-before)
		}
	}

	s := sat.New()
	addPHP(s, 8)
	s.Stop = new(atomic.Bool)
	s.Stop.Store(true)
	if res := s.Solve(); res != sat.Unknown || s.Conflicts != 1 {
		t.Fatalf("Solve under a raised Stop: %v after %d conflicts, want unknown after 1", res, s.Conflicts)
	}
}

// TestUnsetStopKeepsTrajectory: a Stop flag that is never raised leaves
// the search exactly as a nil one does (the nil case is what the
// trajectory pins cover).
func TestUnsetStopKeepsTrajectory(t *testing.T) {
	for i, cfg := range smt.PortfolioConfigs(6) {
		run := func(stop *atomic.Bool) trajectory {
			s := sat.NewWith(cfg)
			s.Stop = stop
			addPHP(s, 7)
			if got := s.Solve(); got != sat.Unsat {
				t.Fatalf("config %d: verdict %v, want unsat", i, got)
			}
			return countersOf(s)
		}
		checkSame(t, fmt.Sprintf("php config %d", i), run(nil), run(new(atomic.Bool)))
	}
	run := func(stop *atomic.Bool) trajectory {
		s := sat.New()
		s.Stop = stop
		addRandom3SAT(s, 2024, 200, 852)
		if got := s.Solve(); got != sat.Unsat {
			t.Fatalf("verdict %v, want unsat", got)
		}
		return countersOf(s)
	}
	checkSame(t, "random3sat", run(nil), run(new(atomic.Bool)))
}

func checkSame(t *testing.T, name string, nilStop, unsetStop trajectory) {
	t.Helper()
	if nilStop != unsetStop {
		t.Errorf("%s: trajectory %v with an unset Stop, %v with none", name, unsetStop, nilStop)
	}
}
