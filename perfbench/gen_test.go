package main

import (
	"strings"
	"testing"
)

func drawOps(seed uint64, client, n int) []kvOp {
	s := newOpStream(seed, client, 5000, 0.5)
	out := make([]kvOp, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestOpStreamsRepeatPerSeed(t *testing.T) {
	a, b := drawOps(7, 0, 5000), drawOps(7, 0, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between two streams of seed 7: %+v vs %+v", i, a[i], b[i])
		}
	}
	same := func(x, y []kvOp) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if same(a, drawOps(8, 0, 5000)) {
		t.Fatal("seeds 7 and 8 draw the same ops")
	}
	if same(a, drawOps(7, 1, 5000)) {
		t.Fatal("clients 0 and 1 draw the same ops")
	}
}

func TestZipfianIsSkewed(t *testing.T) {
	const n, draws = 5000, 200000
	counts := make([]int, n)
	z := newOpStream(1, 0, n, 0).keys
	for i := 0; i < draws; i++ {
		r := z.rank()
		if r < 0 || r >= n {
			t.Fatalf("rank %d outside [0,%d)", r, n)
		}
		counts[r]++
	}
	// θ = 0.99: rank 0 takes roughly 1/zeta(n) ≈ 11% of draws and
	// dominates rank 100 by about two orders of magnitude.
	if share := float64(counts[0]) / draws; share < 0.08 || share > 0.14 {
		t.Fatalf("rank 0 share %.3f, want about 0.11", share)
	}
	if counts[0] < 50*counts[100] {
		t.Fatalf("rank 0 drawn %d times, rank 100 %d: not zipfian", counts[0], counts[100])
	}
	if k := z.next(); k < 0 || k >= n {
		t.Fatalf("scrambled item %d outside [0,%d)", k, n)
	}
}

func TestValueCheck(t *testing.T) {
	v := makeValue(keyName(42), 1, 99)
	if len(v) != valueSize {
		t.Fatalf("value is %d bytes", len(v))
	}
	if err := checkValue(keyName(42), v); err != nil {
		t.Fatal(err)
	}
	if err := checkValue(keyName(43), v); err == nil {
		t.Fatal("another key's value passed the check")
	}
	bad := append([]byte(nil), v...)
	bad[valueSize-1] ^= 1
	if err := checkValue(keyName(42), bad); err == nil || !strings.Contains(err.Error(), "padding") {
		t.Fatalf("corrupt value: %v", err)
	}
	if err := checkValue(keyName(42), v[:100]); err == nil {
		t.Fatal("truncated value passed the check")
	}
}
