// Package campaign is the parallel, sharded orchestrator for fuzzing
// campaigns — the scaling layer the paper's throughput thesis calls for:
// alive-mutate keeps one mutate→optimize→verify loop hot inside a single
// process (paper Fig. 3), and compiler-fuzzing campaigns are
// embarrassingly parallel across seed/mutator shards (IRFuzzer makes the
// same observation), so a campaign over many (bug × seed-test) cells
// should saturate every core the hardware offers.
//
// The engine is split along a coordinator/executor boundary:
//
//   - The coordinator (coordinator.go) owns the unit queue, the group
//     chains, budget/result aggregation, and checkpointing. It is the only
//     place campaign state lives.
//   - The executor (executor.go) runs units on a pool of in-process
//     worker goroutines. It shares no state with the coordinator: a
//     stream of ShardRequest goes in, one ShardResult per request comes
//     out.
//   - Checkpoints (checkpoint.go) durably serialize the coordinator's
//     completed-unit state to a versioned JSONL file, so a killed campaign
//     resumes byte-identical to an uninterrupted run
//     (docs/CHECKPOINTING.md).
//
// The coordinator decomposes a campaign into Units. Units carry a Group
// name; units that share a group form a *chain*: the engine guarantees
// they run sequentially in slice order, each receiving its predecessor's
// result, which is how a per-bug mutant budget is threaded through a
// bug's seed tests exactly as a serial driver would spend it. Different
// groups run concurrently over a bounded worker pool. Because every unit
// derives its randomness from its own Unit.Seed (not from any shared
// stream), results are reproducible regardless of worker count or
// scheduling order: the only scheduling-dependent observable is
// wall-clock time.
//
// Cancellation is first-class: the context passed to Run bounds the whole
// campaign (deadline, SIGINT), is forwarded to every unit, and a
// cancelled campaign still returns the outcomes of every unit that
// completed, so a driver can print a partial result table — and, with
// checkpointing enabled, a final checkpoint is flushed before Run
// returns, so an interrupted run is always resumable.
package campaign

import (
	"context"
	"time"

	"repro/internal/telemetry"
)

// Unit is one schedulable shard of a campaign.
type Unit struct {
	// Group names the chain this unit belongs to (e.g. the bug under
	// test). Units with equal Group run sequentially in slice order;
	// distinct groups run concurrently.
	Group string
	// Name identifies the unit within its group (e.g. the seed test).
	Name string
	// Seed is the unit's independent PRNG seed. The engine does not use
	// it; it is carried here so schedulers, logs, checkpoints, and replay
	// tooling all read the same value the unit's Run closure consumes.
	Seed uint64
	// Run executes the unit. prev is the result of the previous unit in
	// the same group (nil for the group's first unit); the engine
	// guarantees same-group units never run concurrently, so Run may read
	// prev without synchronization. Returning done=true finishes the
	// group early: later units in the group are skipped (the
	// first-finding-per-bug exit). A non-nil err is recorded in the
	// outcome but does not end the group — campaigns tolerate individual
	// seeds failing to parse or preprocess.
	Run func(ctx context.Context, prev any) (res any, done bool, err error)
}

// Outcome is the recorded result of one unit.
type Outcome struct {
	Unit    Unit
	Res     any
	Err     error
	Skipped bool // never ran: group finished early or campaign cancelled
	Start   time.Time
	End     time.Time
}

// Elapsed is the unit's execution wall time (zero if skipped). For units
// restored from a checkpoint it is the recorded pre-restart duration.
func (o *Outcome) Elapsed() time.Duration {
	if o.Skipped {
		return 0
	}
	return o.End.Sub(o.Start)
}

// Options configures an engine run.
type Options struct {
	// Workers is the number of worker goroutines; <= 0 means
	// runtime.NumCPU().
	Workers int
	// Deadline bounds the whole campaign's wall-clock time (0 = none).
	// On expiry, running units are asked to stop via their context and
	// unstarted units are skipped.
	Deadline time.Duration
	// OnGroupDone, when non-nil, is called once per group as it finishes
	// (early exit, queue exhausted, restored-complete from a checkpoint,
	// or cancellation), with the group's outcomes in unit order. Calls
	// are serialized by the engine.
	OnGroupDone func(group string, outcomes []Outcome)
	// Telemetry, when non-nil, receives engine lifecycle events:
	// unit_start / unit_finish (stamped with the executing worker's
	// index) and worker_stall. It never influences scheduling.
	Telemetry *telemetry.Sink
	// GroupProgress, when non-nil, extracts the campaign-specific slice
	// of a group's live status — mutant budget spent, first finding —
	// from the group's chained prev state, for the /api/status read
	// model (Telemetry.Status). Called on the coordinator goroutine with
	// the group's latest chained result (nil before the first unit
	// finishes); it must read prev without mutating it. Like all
	// telemetry it never influences scheduling.
	GroupProgress func(group string, prev any) telemetry.GroupProgress
	// StallThreshold arms a per-unit watchdog: a unit still executing
	// after this long produces a worker_stall journal event (once). 0
	// disables the watchdog.
	StallThreshold time.Duration
	// Checkpoint, when non-nil, enables durable checkpointing: the
	// coordinator writes an initial checkpoint before dispatching, a
	// periodic one as units complete, and a final one before Run returns
	// (docs/CHECKPOINTING.md).
	Checkpoint *CheckpointConfig
	// Restore pre-seeds the group chains with units completed by an
	// earlier run, loaded from that run's checkpoint. Restored units are
	// never re-executed; their recorded results thread into the chains
	// exactly as if they had just run.
	Restore []RestoredUnit
	// StopAfterUnits is a fault-injection hook for resume tests: after
	// this many (non-restored) unit completions the coordinator writes a
	// checkpoint and cancels the campaign — an injected kill at a
	// deterministic cut point. 0 disables the hook.
	StopAfterUnits int
}

// workerKey carries the executing worker's index in the unit's context.
type workerKey struct{}

// WorkerID returns the index of the engine worker executing this unit's
// Run, or -1 when ctx did not come from an engine worker. Units use it to
// stamp shard-local telemetry.
func WorkerID(ctx context.Context) int {
	if v, ok := ctx.Value(workerKey{}).(int); ok {
		return v
	}
	return -1
}

// emit journals an engine event, preserving the event's own shard stamp
// (the worker index) rather than the sink's (nil-safe).
func emit(s *telemetry.Sink, ev telemetry.Event) {
	if s != nil {
		s.Journal.Emit(ev)
	}
}

// Run executes the units and returns one outcome per unit, in input
// order. It blocks until every dispatched unit has finished; on context
// cancellation the remaining units are marked Skipped. The error is
// non-nil only when checkpointing or restore fails — a cancelled or
// deadline-expired campaign is not an error.
func Run(ctx context.Context, units []Unit, opts Options) ([]Outcome, error) {
	return newCoordinator(units, opts).run(ctx)
}
