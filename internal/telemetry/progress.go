// The periodic progress reporter (`-progress 5s`, off by default): a
// single background goroutine printing live throughput to stderr — total
// mutants, mutants/sec over the whole run and over the last interval,
// ETA and per-group progress when a campaign publishes status, and the
// dominant pipeline stage — so a long campaign is observable without
// attaching to the HTTP endpoint.

package telemetry

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// StartProgress launches a reporter that prints one line to w every
// interval until the returned stop func is called. The mutant count is
// read from the "mutants" counter of c; per-stage time from the
// "stage.*" histograms. When st is non-nil the line additionally carries
// the campaign ETA and groups-found tally, taken from the same
// StatusSnapshot (and therefore the same rate arithmetic) that
// /api/status serves — the two surfaces can never disagree. Nil-safe:
// with a nil collector or non-positive interval nothing starts and stop
// is a no-op.
func StartProgress(w io.Writer, c *Collector, st *StatusPublisher, interval time.Duration) (stop func()) {
	if c == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		start := time.Now()
		var lastMutants int64
		lastT := start
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				mutants := c.Counter("mutants").Value()
				instRate := float64(mutants-lastMutants) / now.Sub(lastT).Seconds()
				var totalRate float64
				var campaign string
				if s := st.Status(); s != nil {
					// The published snapshot carries the authoritative
					// mutant count and rate (including a resumed
					// checkpoint's head start).
					mutants = s.Mutants
					totalRate = s.RatePerSec
					campaign = fmt.Sprintf(", ETA %s, groups %d/%d found",
						fmtETA(s.ETANS), s.GroupsFound, s.GroupsTotal)
				} else {
					totalRate = float64(mutants) / time.Since(start).Seconds()
				}
				fmt.Fprintf(w, "progress: %s elapsed, %d mutants (%.0f/s overall, %.0f/s now)%s%s%s\n",
					time.Since(start).Round(time.Second), mutants, totalRate, instRate, campaign, topStage(c), accelStats(c))
				lastMutants, lastT = c.Counter("mutants").Value(), now
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// fmtETA renders an ETA in nanoseconds for the progress line ("-" while
// the rate is not yet established).
func fmtETA(etaNS int64) string {
	if etaNS < 0 {
		return "-"
	}
	return time.Duration(etaNS).Round(time.Second).String()
}

// accelStats renders the TV acceleration segment of the progress line:
// the verdict cache's hit rate over the queries that reached the solve
// stage, and cumulative SAT conflicts, each shown only once it is
// non-zero (a run without the cache, or before the first solve-stage
// query, keeps the historical line shape).
func accelStats(c *Collector) string {
	hits := c.Counter("tv.cache.hit").Value()
	misses := c.Counter("tv.cache.miss").Value()
	conflicts := c.Counter("sat.conflicts").Value()
	var parts []string
	if hits+misses > 0 {
		parts = append(parts, fmt.Sprintf("tv-cache %.0f%% hit", 100*float64(hits)/float64(hits+misses)))
	}
	if conflicts > 0 {
		parts = append(parts, fmt.Sprintf("%d sat conflicts", conflicts))
	}
	if len(parts) == 0 {
		return ""
	}
	return ", " + strings.Join(parts, ", ")
}

// topStage names the stage with the largest total time so far.
func topStage(c *Collector) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var name string
	var best int64
	var grand int64
	for n, h := range c.hists {
		if !strings.HasPrefix(n, "stage.") {
			continue
		}
		s := h.Sum()
		grand += s
		if s > best {
			best, name = s, strings.TrimPrefix(n, "stage.")
		}
	}
	if name == "" || grand == 0 {
		return ""
	}
	return fmt.Sprintf(", top stage %s (%.0f%%)", name, 100*float64(best)/float64(grand))
}
