package sat

import (
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// newRandom3SAT returns a solver holding the pinned phase-transition
// instance (TestTrajectoryRandom3SAT), whose search runs many restart
// rounds before it decides.
func newRandom3SAT() *Solver {
	s := New()
	for i := 0; i < 200; i++ {
		s.NewVar()
	}
	for _, cl := range randomCNF(rng.New(2024), 200, 852) {
		s.AddClause(cl...)
	}
	return s
}

// TestStopEndsSearchWithinOneConflict: a raised Stop ends the search at
// the next conflict, whether it is raised before the search starts or
// between restart rounds, and the interrupted search reports Unknown,
// stays done, and says it was interrupted.
func TestStopEndsSearchWithinOneConflict(t *testing.T) {
	for _, rounds := range []int{0, 1, 3} {
		s := newRandom3SAT()
		var stop atomic.Bool
		s.Stop = &stop
		st := s.newStepper(nil)
		for i := 0; i < rounds; i++ {
			if res := st.step(); res != Unknown || st.interrupted {
				t.Fatalf("round %d: %v (interrupted %v) before Stop was raised", i, res, st.interrupted)
			}
		}
		before := s.Conflicts
		stop.Store(true)
		if res := st.step(); res != Unknown {
			t.Fatalf("after %d rounds: interrupted round returned %v", rounds, res)
		}
		if !st.interrupted || !st.done {
			t.Fatalf("after %d rounds: interrupted=%v done=%v, want both", rounds, st.interrupted, st.done)
		}
		if got := s.Conflicts - before; got != 1 {
			t.Fatalf("after %d rounds: the interrupted round ran %d conflicts, want 1", rounds, got)
		}
		if res := st.step(); res != Unknown || s.Conflicts-before != 1 {
			t.Fatalf("a step after the interrupt searched on: %v, %d conflicts", res, s.Conflicts-before)
		}
	}

	s := newRandom3SAT()
	s.Stop = new(atomic.Bool)
	s.Stop.Store(true)
	if res := s.Solve(); res != Unknown || s.Conflicts != 1 {
		t.Fatalf("Solve under a raised Stop: %v after %d conflicts, want unknown after 1", res, s.Conflicts)
	}
}
