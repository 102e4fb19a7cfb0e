package metrics

import (
	"expvar"
	"sync"
)

// Gauges are the live sweep counters the harness exposes on its debug
// endpoint: cells completed, simulations in flight, engine events
// processed. A zero Gauges is ready to use and completely private —
// tests and library embedders create as many isolated instances as they
// like. Publication on the process-global expvar registry is a separate,
// explicit step because expvar panics on duplicate names: exactly one
// instance per process may Publish a given prefix. cmd/paperbench
// publishes expr.Gauges as the memsched_* names once at startup and
// reads them for its status page; the service daemons keep their own
// counters in their /metrics snapshots instead.
type Gauges struct {
	// CellsCompleted counts fully aggregated (point, strategy) rows.
	CellsCompleted expvar.Int
	// SimsRunning is the number of simulations currently executing.
	SimsRunning expvar.Int
	// SimEvents totals the engine events processed across all runs.
	SimEvents expvar.Int

	publishOnce sync.Once
}

// Publish registers the gauges on the global expvar registry as
// <prefix>_cells_completed, <prefix>_sims_running and
// <prefix>_sim_events. It is idempotent per instance; publishing two
// different instances under the same prefix still panics (expvar's
// single-registration rule), which is exactly the mistake the explicit
// call is meant to surface.
func (g *Gauges) Publish(prefix string) {
	g.publishOnce.Do(func() {
		expvar.Publish(prefix+"_cells_completed", &g.CellsCompleted)
		expvar.Publish(prefix+"_sims_running", &g.SimsRunning)
		expvar.Publish(prefix+"_sim_events", &g.SimEvents)
	})
}

// Snapshot reads the three counters atomically enough for display:
// each value is an atomic load, so a status page never sees torn
// numbers (the triple itself is not a consistent cut, which is fine for
// monotonic progress gauges).
func (g *Gauges) Snapshot() (cellsCompleted, simsRunning, simEvents int64) {
	return g.CellsCompleted.Value(), g.SimsRunning.Value(), g.SimEvents.Value()
}
