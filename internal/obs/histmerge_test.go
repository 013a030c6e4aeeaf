package obs

import "testing"

func TestHistogramMerge(t *testing.T) {
	var a, b, whole Hist
	for v := int64(1); v <= 100; v++ {
		whole.Observe(v)
		if v%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(b)
	if a != whole {
		t.Fatalf("merged halves %+v, want the whole %+v", a, whole)
	}

	// Merging an empty histogram is a no-op; merging into an empty one
	// adopts the other side's extremes.
	a.Merge(Hist{})
	if a != whole {
		t.Fatal("merging an empty histogram changed the target")
	}
	var c Hist
	c.Merge(a)
	if c != a {
		t.Fatal("merge into empty lost state")
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Hist
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Summary(1)
	if s.Count != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("summary %+v", s)
	}
	if s.Mean != s.Sum/1000 {
		t.Fatalf("mean %g, want %g", s.Mean, s.Sum/1000)
	}
	// Quantiles are bucket upper bounds: monotone and bounding the rank.
	if !(s.P50 <= s.P90 && s.P90 <= s.P95 && s.P95 <= s.P99) {
		t.Fatalf("quantiles not monotone: %+v", s)
	}
	if s.P50 < 500 || s.P50 > 1024 {
		t.Fatalf("p50 %g outside [500, 1024]", s.P50)
	}
	if s.P95 < 950 {
		t.Fatalf("p95 %g below the true quantile", s.P95)
	}
}
