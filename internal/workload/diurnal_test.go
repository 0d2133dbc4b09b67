package workload

import (
	"math"
	"testing"
)

// The forecasting benchmark's ordering claims only mean anything if every
// run surges at the same instants, so the generators are pinned to exact
// golden values: any change to the noise stream, the defaults, or the shape
// arithmetic fails here before it silently shifts an experiment.
func TestDiurnalGolden(t *testing.T) {
	d := Diurnal(DiurnalConfig{})
	if len(d) != 1800 {
		t.Fatalf("default diurnal length = %d, want 1800", len(d))
	}
	golden := map[int]float64{
		0:    144.44808820080925,
		1:    147.01419976666588,
		75:   230.5317540435664,
		150:  147.56702630746562,
		300:  154.8738461802155,
		900:  146.41091376522795,
		1799: 159.45560814479276,
	}
	for i, want := range golden {
		if d[i] != want {
			t.Errorf("Diurnal[%d] = %v, want %v", i, d[i], want)
		}
	}
	again := Diurnal(DiurnalConfig{})
	for i := range d {
		if d[i] != again[i] {
			t.Fatalf("Diurnal not deterministic at %d: %v vs %v", i, d[i], again[i])
		}
	}
}

// The clean variants (Noise < 0) are what the forecaster's unit tests feed:
// pure seasonality with a known period.
func TestDiurnalClean(t *testing.T) {
	d := Diurnal(DiurnalConfig{Noise: -1, PeriodS: 100, Base: 200, Amp: 50, Seconds: 400})
	for i := 0; i < 300; i++ {
		if math.Abs(d[i]-d[i+100]) > 1e-9 {
			t.Fatalf("clean diurnal not periodic at %d: %v vs %v", i, d[i], d[i+100])
		}
	}
	max, min := d[0], d[0]
	for _, v := range d {
		if v > max {
			max = v
		}
		if v < min {
			min = v
		}
	}
	if math.Abs(max-250) > 0.1 || math.Abs(min-150) > 0.1 {
		t.Fatalf("clean diurnal range [%v, %v], want [150, 250]", min, max)
	}
}

func TestSeriesRate(t *testing.T) {
	series := []float64{10, 20, 30}
	r := SeriesRate(series, 2)
	cases := map[float64]float64{0: 10, 1.9: 10, 2: 20, 5.9: 30, 6: 0, -1: 0}
	for at, want := range cases {
		if got := r(at); got != want {
			t.Errorf("SeriesRate(%v) = %v, want %v", at, got, want)
		}
	}
	if got := SeriesRate(series, 0)(1.5); got != 20 {
		t.Errorf("stepS=0 should default to 1s holds: got %v, want 20", got)
	}
}
