// The coordinator half of the split: a single-goroutine scheduler that
// owns every piece of campaign state — the unit table, the group chains,
// dispatch, result aggregation, and checkpointing. The executor only
// ever sees one ShardRequest at a time per group, which is what lets
// Unit.Run read its chained prev without locks (the happens-before edge
// is the request/result channel pair), and what makes the coordinator's
// state a complete, serializable description of campaign progress.

package campaign

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// groupState is the coordinator's bookkeeping for one chain.
type groupState struct {
	queue   []int // indices into the unit slice, in order
	next    int   // next queue position to dispatch
	running bool  // a unit of this group is dispatched or executing
	done    bool  // early exit or exhaustion; remaining units skip
	prev    any   // chained result threaded to the next unit
}

// coordinator runs one campaign.
type coordinator struct {
	units    []Unit
	opts     Options
	groups   map[string]*groupState
	order    []string // groups in first-appearance order
	pos      []int    // unit idx -> position within its group's queue
	outcomes []Outcome

	// Checkpoint state. recs[i] is unit i's completion record, nil until
	// the unit completes — and left nil for completions observed after
	// cancellation: a unit cut short mid-run records a partial budget
	// spend, so persisting it would poison a resume. Re-running it from
	// scratch is always sound (results are pure functions of the seed).
	recs      []*UnitRecord
	start     time.Time
	lastWrite time.Time
	ckptErr   error

	restored  []bool // unit idx -> completion came from a checkpoint
	completed int    // non-restored completions (StopAfterUnits hook)
}

func newCoordinator(units []Unit, opts Options) *coordinator {
	co := &coordinator{
		units:    units,
		opts:     opts,
		groups:   map[string]*groupState{},
		pos:      make([]int, len(units)),
		outcomes: make([]Outcome, len(units)),
		recs:     make([]*UnitRecord, len(units)),
		restored: make([]bool, len(units)),
	}
	for i, u := range units {
		co.outcomes[i].Unit = u
		co.outcomes[i].Skipped = true // overwritten when the unit runs
		g, ok := co.groups[u.Group]
		if !ok {
			g = &groupState{}
			co.groups[u.Group] = g
			co.order = append(co.order, u.Group)
		}
		co.pos[i] = len(g.queue)
		g.queue = append(g.queue, i)
	}
	return co
}

// run executes the campaign to completion or cancellation.
func (co *coordinator) run(ctx context.Context) ([]Outcome, error) {
	co.start = time.Now() // vet:determinism — wall-clock anchoring for restored outcomes, reporting only
	if co.opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, co.opts.Deadline)
		defer cancel()
	}
	// StopAfterUnits needs its own cancel to inject the kill.
	var stop context.CancelFunc
	if co.opts.StopAfterUnits > 0 {
		ctx, stop = context.WithCancel(ctx)
		defer stop()
	}

	if err := co.applyRestore(); err != nil {
		return co.outcomes, err
	}
	// Restored-complete groups owe their completion callback before any
	// dispatch, in deterministic first-appearance order.
	restoredDone := map[string]bool{}
	for _, ru := range co.opts.Restore {
		if ru.Record.Done {
			restoredDone[ru.Record.Group] = true
		}
	}
	for _, name := range co.order {
		g := co.groups[name]
		if restoredDone[name] || g.next >= len(g.queue) {
			co.finishGroup(name)
		}
	}
	// An initial checkpoint guarantees the file exists from the moment
	// the campaign starts: a kill at any later point finds a loadable
	// (possibly empty-progress) snapshot.
	co.writeCheckpoint()
	co.publishStatus()

	exec := &LocalExecutor{
		NumWorkers:     co.opts.Workers,
		Telemetry:      co.opts.Telemetry,
		StallThreshold: co.opts.StallThreshold,
	}
	workers := exec.Workers()
	reqs := make(chan ShardRequest, workers)
	results := make(chan ShardResult, workers)
	exec.Start(ctx, reqs, results)

	// Control loop: keep every group's head unit in flight. All group
	// state is touched only here.
	dispatched, completedHere := 0, 0
	for {
		// Collect groups with a dispatchable head.
		var dispatchable []string
		if ctx.Err() == nil {
			for _, name := range co.order {
				g := co.groups[name]
				if !g.done && !g.running && g.next < len(g.queue) {
					dispatchable = append(dispatchable, name)
				}
			}
		}
		if len(dispatchable) == 0 && dispatched == completedHere {
			break // nothing running, nothing to start
		}

		if len(dispatchable) > 0 {
			g := co.groups[dispatchable[0]]
			idx := g.queue[g.next]
			select {
			case reqs <- ShardRequest{Idx: idx, Unit: co.units[idx], Prev: g.prev}:
				g.running = true
				g.next++
				dispatched++
				co.publishStatus()
				continue
			case r := <-results:
				completedHere++
				co.finish(ctx, r, stop)
			}
		} else {
			r := <-results
			completedHere++
			co.finish(ctx, r, stop)
		}
	}
	close(reqs)
	exec.Wait()

	// Groups cut short by cancellation still owe their completion
	// callback (partial-table printing on SIGINT relies on it).
	for _, name := range co.order {
		if !co.groups[name].done {
			co.finishGroup(name)
		}
	}
	// The final flush makes every exit path — completion, deadline,
	// SIGINT — leave a resumable checkpoint behind, written before the
	// caller gets to render a (possibly partial) table.
	co.flushCheckpoint()
	co.publishStatus()
	return co.outcomes, co.ckptErr
}

// finish folds one executor report back into the coordinator state and
// drives the checkpoint/fault-injection hooks.
func (co *coordinator) finish(ctx context.Context, r ShardResult, stop context.CancelFunc) {
	g := co.groups[co.units[r.Idx].Group]
	g.running = false
	if r.Canceled {
		return // stays Skipped; group is torn down by the cancel sweep
	}
	co.outcomes[r.Idx] = Outcome{
		Unit: co.units[r.Idx], Res: r.Res, Err: r.Err,
		Start: r.Start, End: r.End,
	}
	g.prev = r.Res
	// Record for the checkpoint — but only completions observed while
	// the campaign was still live. A unit that returned after
	// cancellation may have been cut short mid-budget; it must re-run on
	// resume, so it is excluded here (see docs/CHECKPOINTING.md).
	if ctx.Err() == nil {
		co.record(r)
	}
	if r.Done || g.next >= len(g.queue) {
		co.finishGroup(co.units[r.Idx].Group)
	}
	co.completed++
	co.publishStatus()
	if ctx.Err() == nil {
		if co.opts.StopAfterUnits > 0 && co.completed >= co.opts.StopAfterUnits {
			// Injected kill: persist exactly the state a real crash
			// would have left behind, then cancel.
			co.flushCheckpoint()
			stop()
			return
		}
		co.maybeWriteCheckpoint()
	}
}

// finishGroup marks a group complete and fires its callback.
func (co *coordinator) finishGroup(name string) {
	g := co.groups[name]
	g.done = true
	if co.opts.OnGroupDone == nil {
		return
	}
	var out []Outcome
	for _, idx := range g.queue {
		out = append(out, co.outcomes[idx])
	}
	co.opts.OnGroupDone(name, out)
}

// applyRestore threads checkpointed completions into the group chains,
// validating that the records describe this exact campaign.
func (co *coordinator) applyRestore() error {
	for _, ru := range co.opts.Restore {
		rec := ru.Record
		g, ok := co.groups[rec.Group]
		if !ok {
			return fmt.Errorf("checkpoint restore: unknown group %q (campaign configuration changed?)", rec.Group)
		}
		if g.done {
			return fmt.Errorf("checkpoint restore: group %q has records after its recorded end", rec.Group)
		}
		if rec.Index != g.next {
			return fmt.Errorf("checkpoint restore: group %q records are not contiguous (got index %d, want %d)", rec.Group, rec.Index, g.next)
		}
		if rec.Index >= len(g.queue) {
			return fmt.Errorf("checkpoint restore: group %q has %d unit(s), record index %d out of range", rec.Group, len(g.queue), rec.Index)
		}
		idx := g.queue[rec.Index]
		u := co.units[idx]
		if rec.Name != "" && rec.Name != u.Name {
			return fmt.Errorf("checkpoint restore: group %q unit %d is %q in the checkpoint but %q here (corpus changed?)", rec.Group, rec.Index, rec.Name, u.Name)
		}
		if rec.Seed != 0 && rec.Seed != u.Seed {
			return fmt.Errorf("checkpoint restore: group %q unit %q seed mismatch (checkpoint %d, campaign %d)", rec.Group, u.Name, rec.Seed, u.Seed)
		}
		var uerr error
		if rec.Err != "" {
			uerr = errors.New(rec.Err)
		}
		co.outcomes[idx] = Outcome{
			Unit: u, Res: ru.Res, Err: uerr,
			Start: co.start, End: co.start.Add(time.Duration(rec.DurNS)),
		}
		keep := rec
		co.recs[idx] = &keep
		co.restored[idx] = true
		g.prev = ru.Res
		g.next = rec.Index + 1
		if rec.Done {
			// Dispatch must skip the rest of the chain; the completion
			// callback fires from run's restored-group sweep.
			g.next = len(g.queue)
		}
	}
	return nil
}

// record encodes one completion into its checkpoint record.
func (co *coordinator) record(r ShardResult) {
	if co.opts.Checkpoint == nil || co.ckptErr != nil {
		return
	}
	state, err := co.opts.Checkpoint.Encode(r.Res)
	if err != nil {
		co.ckptErr = fmt.Errorf("checkpoint: encoding %s/%s: %w", co.units[r.Idx].Group, co.units[r.Idx].Name, err)
		return
	}
	u := co.units[r.Idx]
	rec := &UnitRecord{
		Group: u.Group,
		Index: co.pos[r.Idx],
		Name:  u.Name,
		Seed:  u.Seed,
		Done:  r.Done,
		DurNS: int64(r.End.Sub(r.Start)),
		State: state,
	}
	if r.Err != nil {
		rec.Err = r.Err.Error()
	}
	co.recs[r.Idx] = rec
}

// publishStatus rebuilds the live read model and hands it to the status
// publisher (no-op when the run has none). It runs on the coordinator
// goroutine after every scheduling transition and only reads coordinator
// state, so it costs O(units) per transition — microseconds against
// units that each spend seconds fuzzing — and, being write-only
// telemetry, can never influence dispatch order or results.
func (co *coordinator) publishStatus() {
	st := co.opts.Telemetry.StatusPublisher()
	if st == nil {
		return
	}
	s := &telemetry.StatusSnapshot{
		UnitsTotal:  len(co.units),
		GroupsTotal: len(co.order),
		Units:       make([]telemetry.UnitStatus, len(co.units)),
	}
	for i, u := range co.units {
		row := telemetry.UnitStatus{Group: u.Group, Name: u.Name, Seed: u.Seed}
		g := co.groups[u.Group]
		switch {
		case !co.outcomes[i].Skipped:
			row.State = telemetry.UnitDone
			row.Restored = co.restored[i]
			row.DurNS = int64(co.outcomes[i].Elapsed())
			if co.outcomes[i].Err != nil {
				row.Err = co.outcomes[i].Err.Error()
			}
			s.UnitsDone++
			if row.Restored {
				s.UnitsRestored++
			}
		case g.running && co.pos[i] == g.next-1:
			row.State = telemetry.UnitRunning
			s.UnitsRunning++
		case g.done || co.pos[i] < g.next:
			// The group ended (early exit, exhaustion, cancellation)
			// before this unit ran, or the unit itself was cancelled
			// mid-flight — either way it will never execute.
			row.State = telemetry.UnitSkipped
			s.UnitsSkipped++
		default:
			row.State = telemetry.UnitQueued
			s.UnitsQueued++
		}
		s.Units[i] = row
	}
	s.Groups = make([]telemetry.GroupStatus, 0, len(co.order))
	for _, name := range co.order {
		g := co.groups[name]
		row := telemetry.GroupStatus{
			Name: name, UnitsTotal: len(g.queue),
			Running: g.running, Done: g.done,
		}
		for _, idx := range g.queue {
			if !co.outcomes[idx].Skipped {
				row.UnitsDone++
			}
		}
		if co.opts.GroupProgress != nil {
			gp := co.opts.GroupProgress(name, g.prev)
			row.MutantsSpent, row.MutantsBudget = gp.Spent, gp.Total
			row.Found, row.Detail = gp.Found, gp.Detail
		}
		if g.done {
			s.GroupsDone++
		}
		if row.Found {
			s.GroupsFound++
		}
		s.MutantsBudget += row.MutantsBudget
		if !g.done && !row.Found {
			// Unspent budget of groups still searching: the ETA numerator.
			if rem := row.MutantsBudget - row.MutantsSpent; rem > 0 {
				s.MutantsRemaining += rem
			}
		}
		s.Groups = append(s.Groups, row)
	}
	// The run-wide mutant count (the throughput numerator) comes from the
	// merged collector, so a resumed campaign's pre-kill mutants count.
	s.Mutants = co.opts.Telemetry.Collector().Counter("mutants").Value()
	st.Publish(s)
}

// maybeWriteCheckpoint writes a periodic snapshot when the configured
// interval has elapsed.
func (co *coordinator) maybeWriteCheckpoint() {
	if co.opts.Checkpoint == nil || co.ckptErr != nil {
		return
	}
	if iv := co.opts.Checkpoint.Interval; iv > 0 && time.Since(co.lastWrite) < iv { // vet:determinism — checkpoint pacing, never results
		return
	}
	co.writeCheckpoint()
}

// flushCheckpoint writes a snapshot unconditionally (initial/final/kill).
func (co *coordinator) flushCheckpoint() { co.writeCheckpoint() }

// writeCheckpoint serializes every recorded completion — iterated in
// group first-appearance order, then chain order, so the same set of
// completed units always renders the same bytes — plus the run-wide
// telemetry snapshot, and atomically replaces the checkpoint file.
func (co *coordinator) writeCheckpoint() {
	cfg := co.opts.Checkpoint
	if cfg == nil || co.ckptErr != nil {
		return
	}
	var records []UnitRecord
	for _, name := range co.order {
		for _, idx := range co.groups[name].queue {
			if rec := co.recs[idx]; rec != nil {
				records = append(records, *rec)
			}
		}
	}
	var metrics *telemetry.Snapshot
	if co.opts.Telemetry != nil {
		metrics = co.opts.Telemetry.Collector().Snapshot()
	}
	n, err := WriteCheckpoint(cfg.Path, cfg.Meta, metrics, records)
	if err != nil {
		co.ckptErr = err
		return
	}
	co.lastWrite = time.Now() // vet:determinism — checkpoint pacing, never results
	if s := co.opts.Telemetry; s != nil {
		s.Collector().Add("checkpoint.writes", 1)
		s.Collector().Add("checkpoint.bytes", int64(n))
	}
}
