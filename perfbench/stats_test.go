package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: quantile must sort
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	xs := seq(1000)
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		got, err := quantile(xs, tc.q)
		if err != nil || got != tc.want {
			t.Errorf("p%g of 1..1000 = %v, %v; want %v", tc.q*100, got, err, tc.want)
		}
	}
}

func TestQuantileTenBeyondRule(t *testing.T) {
	// p99 of 1000 samples leaves exactly 10 above its rank: allowed.
	if _, err := quantile(seq(1000), 0.99); err != nil {
		t.Fatalf("p99 of 1000: %v", err)
	}
	// One sample fewer leaves 9: refused, with the counts in the error.
	_, err := quantile(seq(999), 0.99)
	if err == nil || !strings.Contains(err.Error(), "9 beyond") {
		t.Fatalf("p99 of 999 = %v, want a ten-beyond error", err)
	}
	if _, err := quantile(seq(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples accepted with 9 beyond it")
	}
	if _, err := quantile(seq(20), 0.5); err != nil {
		t.Fatalf("p50 of 20 samples: %v", err)
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Fatal("quantile of no samples accepted")
	}
	if v := softQuantile(seq(999), 0.99); v != 0 {
		t.Fatalf("unsupported soft quantile = %v, want 0", v)
	}
	// The highest supported quantile of 300 samples is the 290th.
	q, v, ok := highestQuantile(seq(300))
	if !ok || v != 290 {
		t.Fatalf("highest quantile of 1..300 = p%g %v %v, want the 290th sample", 100*q, v, ok)
	}
	if got, err := quantile(seq(300), q); err != nil || got != v {
		t.Fatalf("quantile at the highest supported q = %v, %v; want %v", got, err, v)
	}
	if _, _, ok := highestQuantile(seq(minBeyond)); ok {
		t.Fatal("a quantile of ten samples was supported")
	}
}

func TestMedianMeanRatio(t *testing.T) {
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := mean([]float64{1, 2, 6}); m != 3 {
		t.Fatalf("mean = %v", m)
	}
	if r := ratio(1, 0); r != 0 || math.IsNaN(r) {
		t.Fatalf("ratio(1,0) = %v", r)
	}
}
