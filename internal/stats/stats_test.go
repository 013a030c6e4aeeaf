package stats

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 7},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("Mean(%v) = %g, want %g", c.in, got, c.want)
			}
		})
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !almostEqual(got, 2, 1e-9) {
		t.Errorf("GeoMean(1,4) = %g, want 2", got)
	}
	if got := GeoMean([]float64{8, 8, 8}); !almostEqual(got, 8, 1e-9) {
		t.Errorf("GeoMean(8,8,8) = %g, want 8", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %g, want 0", got)
	}
	// A zero sample must not collapse the mean to exactly zero.
	if got := GeoMean([]float64{0, 100}); got <= 0 {
		t.Errorf("GeoMean with zero sample = %g, want > 0", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %g, want 7", got)
	}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %g, want -1", got)
	}
	if Max(nil) != 0 || Min(nil) != 0 {
		t.Error("empty-slice aggregates should be 0")
	}
}
