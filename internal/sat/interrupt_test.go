package sat_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/sat"
	"repro/internal/smt"
)

// TestUnsetStopKeepsTrajectory: a Stop flag that is never raised leaves
// the search exactly as a nil one does (the nil case is what the
// trajectory pins cover), under the canonical and the fallback
// configuration.
func TestUnsetStopKeepsTrajectory(t *testing.T) {
	for i, cfg := range []sat.Config{{}, smt.FallbackConfig} {
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
