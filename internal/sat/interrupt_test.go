package sat_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/sat"
)

// TestUnsetStopKeepsTrajectory: a Stop flag that is never raised leaves
// the search exactly as a nil one does (the nil case is what the
// trajectory pins cover).
func TestUnsetStopKeepsTrajectory(t *testing.T) {
	for name, add := range map[string]func(s *sat.Solver){
		"php":        func(s *sat.Solver) { addPHP(s, 7) },
		"random3sat": func(s *sat.Solver) { addRandom3SAT(s, 2024, 200, 852) },
	} {
		run := func(stop *atomic.Bool) trajectory {
			s := sat.New()
			s.Stop = stop
			add(s)
			if got := s.Solve(); got != sat.Unsat {
				t.Fatalf("%s: verdict %v, want unsat", name, got)
			}
			return countersOf(s)
		}
		checkSame(t, name, run(nil), run(new(atomic.Bool)))
	}
}

func checkSame(t *testing.T, name string, nilStop, unsetStop trajectory) {
	t.Helper()
	if nilStop != unsetStop {
		t.Errorf("%s: trajectory %v with an unset Stop, %v with none", name, unsetStop, nilStop)
	}
}
