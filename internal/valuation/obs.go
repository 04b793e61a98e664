package valuation

import (
	"repro/internal/telemetry"
)

// Obs collects the valuation engine's instrumentation: how many coalition
// retrainings actually ran, how much the cache and the in-flight dedup
// absorbed, how many trainings are running right now, and how long one
// coalition training takes. A nil Obs on Oracle disables all of it; the
// zero value is inert (every instrument is a nil-safe no-op), so the
// utility hot path never branches on more than one pointer.
type Obs struct {
	// Evals counts actual coalition trainings (cache misses).
	Evals *telemetry.Counter
	// CacheHits counts utilities served from the completed cache.
	CacheHits *telemetry.Counter
	// DedupWaits counts calls that blocked on another goroutine's
	// in-flight training of the same coalition instead of retraining.
	DedupWaits *telemetry.Counter
	// InFlight gauges concurrent coalition trainings (semaphore occupancy).
	InFlight *telemetry.Gauge
	// TrainSeconds times one coalition training + evaluation.
	TrainSeconds *telemetry.Histogram
	// BatchSeconds times one EvalBatch call end-to-end.
	BatchSeconds *telemetry.Histogram
}

// inertObs is the shared no-op instrument set used when Oracle.Obs is nil:
// every field is a nil instrument, and nil instruments no-op on use.
var inertObs = &Obs{}

// NewObs registers the valuation metric family on r and returns the handle
// to set as Oracle.Obs.
func NewObs(r *telemetry.Registry) *Obs {
	return &Obs{
		Evals:      r.Counter("ctfl_valuation_evals_total", "coalition FedAvg retrainings performed"),
		CacheHits:  r.Counter(`ctfl_valuation_served_total{source="cache"}`, "coalition utilities served from the completed cache"),
		DedupWaits: r.Counter(`ctfl_valuation_served_total{source="inflight"}`, "coalition utilities served by waiting on an in-flight training"),
		InFlight:   r.Gauge("ctfl_valuation_inflight_trainings", "coalition trainings currently running"),
		TrainSeconds: r.Histogram("ctfl_valuation_train_seconds",
			"one coalition FedAvg training + evaluation", nil),
		BatchSeconds: r.Histogram("ctfl_valuation_batch_seconds",
			"one EvalBatch plan evaluated end-to-end", nil),
	}
}
