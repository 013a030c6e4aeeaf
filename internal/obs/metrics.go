package obs

import (
	"encoding/json"
	"expvar"
	"math"
	"sync"
)

// Metrics is a small counter/gauge/histogram registry. Instruments are
// created on first use and live in the registry's own expvar.Map, which
// stays private until Publish exports it into the process-global expvar
// namespace — so tests and libraries can use registries freely without
// colliding on expvar's global, panic-on-duplicate Publish.
type Metrics struct {
	mu   sync.Mutex
	vars *expvar.Map
}

// NewMetrics returns an empty, unpublished registry.
func NewMetrics() *Metrics {
	return &Metrics{vars: new(expvar.Map).Init()}
}

var publishMu sync.Mutex

// Publish exports the registry under namespace in the process-global expvar
// map (served at /debug/vars). Publishing the same namespace twice is a
// no-op rather than the panic expvar.Publish would raise.
func (m *Metrics) Publish(namespace string) {
	if m == nil {
		return
	}
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(namespace) == nil {
		expvar.Publish(namespace, m.vars)
	}
}

// Counter returns the named monotone counter, creating it on first use.
// On a nil registry it returns a throwaway instrument so call sites never
// nil-check.
func (m *Metrics) Counter(name string) *expvar.Int {
	if m == nil {
		return new(expvar.Int)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.vars.Get(name).(*expvar.Int); ok {
		return v
	}
	v := new(expvar.Int)
	m.vars.Set(name, v)
	return v
}

// Gauge returns the named float gauge, creating it on first use.
func (m *Metrics) Gauge(name string) *expvar.Float {
	if m == nil {
		return new(expvar.Float)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.vars.Get(name).(*expvar.Float); ok {
		return v
	}
	v := new(expvar.Float)
	m.vars.Set(name, v)
	return v
}

// GaugeFunc registers a gauge whose value is computed when it is read, so
// expvar readers and /metrics scrapes both see the exact current value.
// Registering a name again replaces the function.
func (m *Metrics) GaugeFunc(name string, f func() float64) {
	if m == nil {
		return
	}
	m.vars.Set(name, expvar.Func(func() any { return f() }))
}

// Histogram returns the named histogram, creating it on first use with per
// small units to one exposed unit (1e6 for a nanosecond-recorded "_ms"
// family, 1 for a family exposed as recorded).
func (m *Metrics) Histogram(name string, per float64) *Histogram {
	if m == nil {
		return &Histogram{per: per}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.vars.Get(name).(*Histogram); ok {
		return h
	}
	h := &Histogram{per: per}
	m.vars.Set(name, h)
	return h
}

// String renders the whole registry as the expvar.Map JSON (also what
// /debug/vars serves for the published namespace).
func (m *Metrics) String() string {
	if m == nil {
		return "{}"
	}
	return m.vars.String()
}

// nsPerMS is the per of the duration families: recorded in nanoseconds,
// exposed in the milliseconds their names end in.
const nsPerMS = 1e6

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

// String implements expvar.Var: the Summary in the exposed unit, as JSON.
func (h *Histogram) String() string {
	b, _ := json.Marshal(h.Snapshot().Summary(h.per)) //nolint:errcheck // plain struct of finite numbers
	return string(b)
}
