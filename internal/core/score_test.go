package core

import (
	"math"
	"math/rand"
	"testing"
)

func TestMeasureString(t *testing.T) {
	cases := []struct {
		m    Measure
		want string
	}{
		{0, "none"},
		{MeasureRD, "RD"},
		{MeasureRDPopulated, "RDPop"},
		{MeasureIRSD, "IRSD"},
		{MeasureIkRD, "IkRD"},
		{MeasureRD | MeasureIkRD, "RD+IkRD"},
		{MeasureRD | MeasureRDPopulated | MeasureIRSD | MeasureIkRD, "RD+RDPop+IRSD+IkRD"},
		{1 << 6, "?"},
		{MeasureIRSD | 1<<7, "IRSD+?"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("Measure(%#x).String() = %q, want %q", uint8(c.m), got, c.want)
		}
	}
}

func TestDeficitEdges(t *testing.T) {
	cases := []struct {
		value, threshold, want float64
	}{
		{0.05, 0.05, 0}, // at threshold: did not fire
		{0.06, 0.05, 0}, // above threshold
		{0.05, 0, 0},    // disabled threshold
		{0.05, -1, 0},   // negative threshold
		{0, 0.05, 1},    // all the way down
		{-0.3, 0.05, 1}, // below zero clamps
		{0.025, 0.05, 0.5},
		{0.01, 0.05, 0.8},
	}
	for _, c := range cases {
		if got := Deficit(c.value, c.threshold); got != c.want {
			t.Errorf("Deficit(%g, %g) = %g, want %g", c.value, c.threshold, got, c.want)
		}
	}
}

// TestDeficitProperties checks the range and monotonicity contract on
// random inputs: deficits live in [0,1], fire exactly when
// value < threshold > 0, and a smaller value never yields a smaller
// deficit.
func TestDeficitProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		thr := rng.Float64() * 2
		v := rng.Float64()*3 - 0.5
		d := Deficit(v, thr)
		if d < 0 || d > 1 || math.IsNaN(d) {
			t.Fatalf("Deficit(%g, %g) = %g out of [0,1]", v, thr, d)
		}
		if thr > 0 && v < thr && v > 0 && d <= 0 {
			t.Fatalf("Deficit(%g, %g) = %g: fired compare but zero deficit", v, thr, d)
		}
		if (thr <= 0 || v >= thr) && d != 0 {
			t.Fatalf("Deficit(%g, %g) = %g: did not fire but nonzero", v, thr, d)
		}
		// Monotone: moving the value down cannot shrink the deficit.
		if thr > 0 {
			v2 := v - rng.Float64()
			if d2 := Deficit(v2, thr); d2 < d {
				t.Fatalf("Deficit not monotone: Deficit(%g)=%g < Deficit(%g)=%g at thr=%g", v2, d2, v, d, thr)
			}
		}
	}
}
