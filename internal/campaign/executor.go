// The executor half of the coordinator/executor split: a pool of
// in-process workers runs units handed to it over a channel protocol —
// a request stream in, a result stream out, no shared state with the
// coordinator — and reports each result back.

package campaign

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// ShardRequest asks the executor to run one unit. Prev is the chained
// result of the unit's group predecessor (nil for a group head); the
// coordinator guarantees at most one in-flight request per group, so the
// executor may hand Prev to Unit.Run without synchronization.
type ShardRequest struct {
	Idx  int // index into the campaign's unit table
	Unit Unit
	Prev any
}

// ShardResult reports one executed (or cancelled-before-start) unit.
type ShardResult struct {
	Idx        int
	Res        any
	Done       bool // the unit finished its group early
	Err        error
	Start, End time.Time
	Canceled   bool // the unit never ran: context was cancelled first
	Worker     int  // executing worker index (telemetry stamp)
}

// LocalExecutor runs campaign units on a pool of in-process goroutines
// on behalf of the coordinator.
type LocalExecutor struct {
	// NumWorkers is the pool size; <= 0 means runtime.NumCPU().
	NumWorkers int
	// Telemetry, when non-nil, receives unit_start/unit_finish/
	// worker_stall events stamped with the executing worker's index.
	Telemetry *telemetry.Sink
	// StallThreshold arms the per-unit stall watchdog (0 = off).
	StallThreshold time.Duration

	wg sync.WaitGroup
}

// Workers resolves the configured pool size, which the coordinator also
// uses to size the protocol's channel buffers (backpressure, not queue
// depth, keeps memory flat on thousand-shard campaigns).
func (e *LocalExecutor) Workers() int {
	if e.NumWorkers <= 0 {
		return runtime.NumCPU()
	}
	return e.NumWorkers
}

// Start launches the worker pool without blocking. Workers pull from
// reqs until it is closed and deliver every pulled request's result to
// results — exactly one ShardResult per ShardRequest, cancelled requests
// included (with Canceled set).
func (e *LocalExecutor) Start(ctx context.Context, reqs <-chan ShardRequest, results chan<- ShardResult) {
	for w := 0; w < e.Workers(); w++ {
		e.wg.Add(1)
		go e.worker(ctx, w, reqs, results)
	}
}

// Wait blocks until every worker has exited (reqs closed and drained).
func (e *LocalExecutor) Wait() { e.wg.Wait() }

// worker executes requests until reqs closes.
func (e *LocalExecutor) worker(ctx context.Context, worker int, reqs <-chan ShardRequest, results chan<- ShardResult) {
	defer e.wg.Done()
	wctx := context.WithValue(ctx, workerKey{}, worker)
	for req := range reqs {
		r := ShardResult{Idx: req.Idx, Worker: worker, Start: time.Now()} // vet:determinism — unit wall-clock, reporting only
		if ctx.Err() != nil {
			r.Canceled = true
			results <- r
			continue
		}
		u := req.Unit
		emit(e.Telemetry, telemetry.Event{
			Type: "unit_start", Shard: worker,
			Group: u.Group, Unit: u.Name, Seed: u.Seed,
		})
		var stall *time.Timer
		if e.StallThreshold > 0 && e.Telemetry != nil {
			stall = time.AfterFunc(e.StallThreshold, func() {
				emit(e.Telemetry, telemetry.Event{
					Type: "worker_stall", Shard: worker,
					Group: u.Group, Unit: u.Name,
					DurNS: int64(e.StallThreshold),
				})
			})
		}
		r.Res, r.Done, r.Err = u.Run(wctx, req.Prev)
		r.End = time.Now() // vet:determinism — unit wall-clock, reporting only
		if stall != nil {
			stall.Stop()
		}
		fin := telemetry.Event{
			Type: "unit_finish", Shard: worker,
			Group: u.Group, Unit: u.Name, Seed: u.Seed,
			DurNS: int64(r.End.Sub(r.Start)),
		}
		if r.Err != nil {
			fin.Err = r.Err.Error()
		}
		emit(e.Telemetry, fin)
		results <- r
	}
}
