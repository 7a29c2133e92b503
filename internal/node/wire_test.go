package node

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

func TestStatsBlobRoundTrip(t *testing.T) {
	in := &statsBlob{
		counters: []partitionCounters{
			{partition: 0, origin: 3, transit: 1, served: 4, overflow: 0},
			{partition: 7, origin: 0, transit: 9, served: 2, overflow: 5},
		},
		claims: []placementClaim{
			{partition: 0, primary: 1, replicas: []int{0, 1, 2}},
			{partition: 7, primary: 2, replicas: []int{2}},
		},
	}
	enc := appendStats(nil, in)
	out, err := decodeStats(enc, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
}

func TestStatsBlobEmpty(t *testing.T) {
	enc := appendStats(nil, &statsBlob{})
	out, err := decodeStats(enc, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.counters) != 0 || len(out.claims) != 0 {
		t.Fatalf("empty blob decoded non-empty: %+v", out)
	}
}

func TestDecodeStatsRejectsCorrupt(t *testing.T) {
	good := appendStats(nil, &statsBlob{
		counters: []partitionCounters{{partition: 1, origin: 2}},
		claims:   []placementClaim{{partition: 1, primary: 0, replicas: []int{0}}},
	})
	cases := map[string][]byte{
		"empty truncated":     good[:0],
		"truncated counters":  good[:2],
		"trailing bytes":      append(append([]byte{}, good...), 1),
		"partition too large": appendStats(nil, &statsBlob{counters: []partitionCounters{{partition: 99}}}),
		"peer too large":      appendStats(nil, &statsBlob{claims: []placementClaim{{partition: 1, primary: 42}}}),
	}
	for name, buf := range cases {
		if _, err := decodeStats(buf, 8, 3); err == nil {
			t.Errorf("%s: corrupt stats accepted", name)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	in := map[string]entry{
		"alpha": {val: []byte("1"), ver: 7},
		"beta":  {val: []byte{}, ver: 0},
		"gamma": {val: bytes.Repeat([]byte("x"), 300), ver: 9<<20 | 3},
	}
	enc := appendEntries(nil, sortedEntries(in))
	out, err := decodeEntries(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("size mismatch: %d vs %d", len(out), len(in))
	}
	for _, e := range out {
		want, ok := in[e.key]
		if !ok {
			t.Fatalf("decoded unknown key %q", e.key)
		}
		if !bytes.Equal(e.val, want.val) || e.ver != want.ver {
			t.Fatalf("key %q: got (%q, %d), want (%q, %d)", e.key, e.val, e.ver, want.val, want.ver)
		}
	}
	// Entries come back in the canonical ascending key order.
	for i := 1; i < len(out); i++ {
		if out[i-1].key >= out[i].key {
			t.Fatalf("decoded entries out of order: %q before %q", out[i-1].key, out[i].key)
		}
	}
}

func TestSnapshotEncodingIsCanonical(t *testing.T) {
	a := map[string]entry{"k1": {val: []byte("v1"), ver: 1}, "k2": {val: []byte("v2"), ver: 2}, "k3": {val: []byte("v3"), ver: 3}}
	b := map[string]entry{"k3": {val: []byte("v3"), ver: 3}, "k1": {val: []byte("v1"), ver: 1}, "k2": {val: []byte("v2"), ver: 2}}
	if !bytes.Equal(appendEntries(nil, sortedEntries(a)), appendEntries(nil, sortedEntries(b))) {
		t.Fatal("snapshot encoding depends on construction order")
	}
}

func TestDecodeSnapshotRejectsCorrupt(t *testing.T) {
	good := appendEntries(nil, sortedEntries(map[string]entry{"key": {val: []byte("value"), ver: 5}}))
	cases := map[string][]byte{
		"truncated": good[:len(good)-2],
		"trailing":  append(append([]byte{}, good...), 0),
		"bomb":      {0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
	}
	for name, buf := range cases {
		if _, err := decodeEntries(buf); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
}

func TestAckSetRoundTrip(t *testing.T) {
	cases := [][]int{nil, {0}, {0, 2, 4}, {1, 2, 3, 4}}
	for _, in := range cases {
		enc := appendAckSet(nil, in)
		out, err := decodeAckSet(enc, 5)
		if err != nil {
			t.Fatalf("acks %v: %v", in, err)
		}
		if len(out) != len(in) {
			t.Fatalf("acks %v: decoded %v", in, out)
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("acks %v: decoded %v", in, out)
			}
		}
	}
}

func TestDecodeAckSetRejectsCorrupt(t *testing.T) {
	good := appendAckSet(nil, []int{0, 2})
	cases := map[string][]byte{
		"truncated":       good[:1],
		"trailing":        append(append([]byte{}, good...), 0),
		"count too large": appendAckSet(nil, []int{0, 1, 2, 3, 4, 5}),
		"index too large": appendAckSet(nil, []int{9}),
	}
	for name, buf := range cases {
		if _, err := decodeAckSet(buf, 5); err == nil {
			t.Errorf("%s: corrupt ack set accepted", name)
		}
	}
}

func TestXferBeginRoundTrip(t *testing.T) {
	cases := []struct {
		total uint32
		mark  bool
	}{
		{0, false}, {0, true}, {1, false}, {17, true}, {1<<32 - 1, true},
	}
	for _, c := range cases {
		enc := appendXferBegin(nil, c.total, c.mark)
		total, mark, err := decodeXferBegin(enc)
		if err != nil {
			t.Fatalf("(%d, %v): %v", c.total, c.mark, err)
		}
		if total != c.total || mark != c.mark {
			t.Fatalf("(%d, %v) round-tripped to (%d, %v)", c.total, c.mark, total, mark)
		}
	}
}

func TestDecodeXferBeginRejectsCorrupt(t *testing.T) {
	good := appendXferBegin(nil, 17, true)
	cases := map[string][]byte{
		"empty":           good[:0],
		"missing flag":    good[:len(good)-1],
		"trailing":        append(append([]byte{}, good...), 0),
		"count overflows": binary.AppendUvarint(nil, 1<<32), // and no flag byte either
	}
	for name, buf := range cases {
		if _, _, err := decodeXferBegin(buf); err == nil {
			t.Errorf("%s: corrupt transfer begin accepted", name)
		}
	}
}

func TestAEDigestRoundTrip(t *testing.T) {
	leaves := make([]uint64, aeTop)
	for i := range leaves {
		leaves[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	enc := appendAEDigest(nil, leaves, 0xDEADBEEF)
	got, root, err := decodeAEDigest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if root != 0xDEADBEEF || len(got) != aeTop {
		t.Fatalf("round-trip gave root %x, %d leaves", root, len(got))
	}
	for i := range leaves {
		if got[i] != leaves[i] {
			t.Fatalf("leaf %d round-tripped to %x, want %x", i, got[i], leaves[i])
		}
	}
	// The empty vector (zero leaves + root) is legal too.
	if _, root, err := decodeAEDigest(appendAEDigest(nil, nil, 7)); err != nil || root != 7 {
		t.Fatalf("empty digest: root %d err %v", root, err)
	}
}

func TestDecodeAEDigestRejectsCorrupt(t *testing.T) {
	good := appendAEDigest(nil, make([]uint64, aeTop), 1)
	cases := map[string][]byte{
		"empty input":    {},
		"truncated leaf": good[:len(good)-9],
		"missing root":   good[:len(good)-8],
		"trailing":       append(append([]byte{}, good...), 0),
		"count bomb":     binary.AppendUvarint(nil, 1<<20),
	}
	for name, buf := range cases {
		if _, _, err := decodeAEDigest(buf); err == nil {
			t.Errorf("%s: corrupt AE digest accepted", name)
		}
	}
}
