package obs

import (
	"expvar"
	"math"
	"sync"
)

// Metrics is a small counter/gauge/histogram registry. Instruments are
// created on first use and live in the registry's own map; the one reader
// is WritePrometheus, so registries are private values tests and libraries
// can create freely.
type Metrics struct {
	mu   sync.Mutex
	vars map[string]any // *expvar.Int, *expvar.Float, func() float64 or *Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{vars: make(map[string]any)}
}

// instrument returns the name's instrument when it is a T, and otherwise
// stores a fresh one from mk. On a nil registry it returns a throwaway
// instrument so call sites never nil-check.
func instrument[T any](m *Metrics, name string, mk func() T) T {
	if m == nil {
		return mk()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.vars[name].(T); ok {
		return v
	}
	v := mk()
	m.vars[name] = v
	return v
}

// Counter returns the named monotone counter, creating it on first use.
func (m *Metrics) Counter(name string) *expvar.Int {
	return instrument(m, name, func() *expvar.Int { return new(expvar.Int) })
}

// Gauge returns the named float gauge, creating it on first use.
func (m *Metrics) Gauge(name string) *expvar.Float {
	return instrument(m, name, func() *expvar.Float { return new(expvar.Float) })
}

// GaugeFunc registers a gauge whose value is computed when it is read, so
// /metrics scrapes see the exact current value. Registering a name again
// replaces the function.
func (m *Metrics) GaugeFunc(name string, f func() float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.vars[name] = f
	m.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use with per
// small units to one exposed unit (NsPerMS for a nanosecond-recorded "_ms"
// family, 1 for a family exposed as recorded).
func (m *Metrics) Histogram(name string, per float64) *Histogram {
	return instrument(m, name, func() *Histogram { return &Histogram{per: per} })
}

// NsPerMS is the per of the duration families: recorded in nanoseconds,
// exposed in the milliseconds their names end in.
const NsPerMS = 1e6

// Histogram is the registry's histogram instrument: a mutex around a Hist.
// Sites observe floats in the exposed unit (the unit the family name ends
// in); the instrument records them as whole small units — per of them to one
// exposed unit, fixed where the family is created — so every duration
// family holds nanoseconds like the request instruments do. Observations
// are mutex-guarded: instrumented sites observe at most once per descent
// pass, simulator bin or re-solve, far off any hot path.
type Histogram struct {
	mu  sync.Mutex
	per float64
	h   Hist
}

// Observe records one sample given in the exposed unit. Negative and
// non-finite samples are dropped; one too large for an int64 of small
// units lands in the top bucket.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return
	}
	n := int64(math.MaxInt64)
	if x := math.Round(v * h.per); x < math.MaxInt64 {
		n = int64(x)
	}
	h.mu.Lock()
	h.h.Observe(n)
	h.mu.Unlock()
}

// Snapshot returns a copy of the recorded histogram, in small units.
func (h *Histogram) Snapshot() Hist {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h
}
