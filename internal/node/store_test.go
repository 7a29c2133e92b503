package node

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/durable"
	"repro/internal/stats"
)

// openTestDurableStore opens a durable store over dir with fsync off
// and the given compaction threshold, trusting recovered residency (a
// first boot). The engine closes with the test.
func openTestDurableStore(t *testing.T, dir string, partitions, compactEvery int) *store {
	t.Helper()
	eng, rec, err := durable.Open(durable.Options{Dir: dir, Partitions: partitions, CompactEvery: compactEvery})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return newDurableStore(eng, rec, true)
}

// storeModes builds each store flavour a store-level test should hold
// for: the in-memory store and the durable one.
var storeModes = []struct {
	name string
	open func(t *testing.T) *store
}{
	{"memory", func(*testing.T) *store { return newStore(4) }},
	{"durable", func(t *testing.T) *store { return openTestDurableStore(t, t.TempDir(), 4, 1024) }},
}

// TestDurableStoreRecoveryEquivalence is the one-owner contract: the
// store is the only in-memory copy of partition state, and the engine
// journals it and compacts whatever the store hands over. A seeded
// random mix of every mutating store op — with compaction every three
// records, so snapshots land mid-merge, mid-session and while holds
// defer them — is cut into rounds; after each round the engine closes
// and recovery must rebuild every shard exactly (data, maxVer,
// residency, inbound sessions, done-list, AE root), and the next round
// runs on the recovered store. Checking often matters: a compaction
// snapshots the live shard, so it would paper over a record an earlier
// one lost.
func TestDurableStoreRecoveryEquivalence(t *testing.T) {
	const partitions = 4
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			s := openTestDurableStore(t, dir, partitions, 3)
			rng := stats.NewRNG(seed)
			entries := func() []kvEntry {
				out := make([]kvEntry, rng.Intn(4))
				for i := range out {
					out[i] = kvEntry{
						key: fmt.Sprintf("k%d", rng.Intn(8)),
						ver: uint64(rng.Intn(3))<<versionEpochShift + uint64(rng.Intn(40)),
						val: []byte(fmt.Sprintf("v%d", rng.Intn(1000))),
					}
				}
				return out
			}
			compactions := 0
			for round := 0; round < 40; round++ {
				for i := rng.Intn(30); i > 0; i-- {
					randomStoreOp(s, rng, rng.Intn(partitions), entries())
				}
				if err := s.eng.Err(); err != nil {
					t.Fatalf("round %d: engine latched: %v", round, err)
				}
				for p := 0; p < partitions; p++ {
					compactions += s.eng.Stats(p).Compactions
				}
				if err := s.eng.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				got := openTestDurableStore(t, dir, partitions, 3)
				for p := 0; p < partitions; p++ {
					expectSameShard(t, p, &got.parts[p], &s.parts[p])
				}
				if t.Failed() {
					t.Fatalf("round %d: recovery diverged from the live store", round)
				}
				s = got
			}
			if compactions == 0 {
				t.Fatal("no compaction ran: the sequence does not exercise snapshots")
			}
		})
	}
}

// randomStoreOp applies one random mutating op to partition p; e is a
// random entry block for the ops that take one.
func randomStoreOp(s *store, rng *stats.RNG, p int, e []kvEntry) {
	sid := uint64(1 + rng.Intn(6))
	switch rng.Intn(12) {
	case 0, 1:
		s.stampPut(p, fmt.Sprintf("k%d", rng.Intn(8)), []byte(fmt.Sprintf("s%d", rng.Intn(1000))), uint64(rng.Intn(3))<<versionEpochShift)
	case 2:
		if len(e) > 0 {
			s.applySync(p, e[0].key, e[0].val, e[0].ver)
		}
	case 3:
		_ = s.mergeSnapshot(p, e)
	case 4:
		_, _, _ = s.mergeResident(p, e)
	case 5:
		if rng.Intn(4) == 0 {
			s.drop(p)
		} else {
			s.resetEmpty(p)
		}
	case 6:
		_, _, _, _ = s.beginInbound(p, sid, uint32(1+rng.Intn(3)), rng.Intn(2) == 0, uint64(rng.Intn(3))<<versionEpochShift)
	case 7, 8:
		_, _, _ = s.applyChunk(p, sid, uint32(rng.Intn(3)), e)
	case 9:
		_, _, _, _ = s.finishInbound(p, sid)
	case 10:
		s.holdSnapshot(p)
	case 11:
		if s.holdCount(p) > 0 {
			s.releaseHold(p)
		}
	}
}

// expectSameShard compares a recovered shard with the live one it must
// reproduce.
func expectSameShard(t *testing.T, p int, got, want *partitionShard) {
	t.Helper()
	if len(got.data) != len(want.data) {
		t.Errorf("partition %d: %d keys recovered, want %d", p, len(got.data), len(want.data))
	}
	for k, w := range want.data {
		if g, ok := got.data[k]; !ok || g.ver != w.ver || !bytes.Equal(g.val, w.val) {
			t.Errorf("partition %d key %q: recovered {%q %d} ok=%v, want {%q %d}", p, k, g.val, g.ver, ok, w.val, w.ver)
		}
	}
	if got.maxVer != want.maxVer || got.resident != want.resident {
		t.Errorf("partition %d: recovered maxVer=%d resident=%v, want %d %v", p, got.maxVer, got.resident, want.maxVer, want.resident)
	}
	if !slices.Equal(got.inbound, want.inbound) || !slices.Equal(got.done, want.done) {
		t.Errorf("partition %d: recovered sessions %v done %v, want %v %v", p, got.inbound, got.done, want.inbound, want.done)
	}
	if got.tree.Root() != want.tree.Root() {
		t.Errorf("partition %d: recovered AE root %x, want %x", p, got.tree.Root(), want.tree.Root())
	}
}

// TestHoldDefersCompaction pins the lease contract: while a hold is out
// (an outbound transfer froze the partition state), the record
// threshold must not trigger a compaction; the deferred compaction
// runs when the last hold releases, and snapshots everything appended
// meanwhile.
func TestHoldDefersCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTestDurableStore(t, dir, 4, 3)
	s.holdSnapshot(0)
	s.holdSnapshot(0) // holds nest
	for i := 0; i < 6; i++ {
		if _, ok := s.stampPut(0, fmt.Sprintf("k%d", i), []byte("v"), 0); !ok {
			t.Fatal("put refused")
		}
	}
	if st := s.eng.Stats(0); st.Compactions != 0 || st.WALRecords != 6 {
		t.Fatalf("held partition compacted anyway: %+v", st)
	}
	s.releaseHold(0)
	if st := s.eng.Stats(0); st.Compactions != 0 {
		t.Fatalf("compaction ran with a hold still out: %+v", st)
	}
	s.releaseHold(0)
	if st := s.eng.Stats(0); st.Compactions != 1 || st.WALRecords != 0 {
		t.Fatalf("deferred compaction did not run on last release: %+v", st)
	}
	if err := s.eng.Close(); err != nil {
		t.Fatal(err)
	}
	if n := openTestDurableStore(t, dir, 4, 3).keys(0); n != 6 {
		t.Fatalf("recovered %d keys after the deferred compaction, want 6", n)
	}
}

// TestSnapshotEntriesAboveFiltersAndSorts pins the delta-transfer fast
// path: exactly the records with versions strictly above the watermark,
// sorted by key, with the shard's watermark — in both store modes.
func TestSnapshotEntriesAboveFiltersAndSorts(t *testing.T) {
	for _, mode := range storeModes {
		t.Run(mode.name, func(t *testing.T) {
			s := mode.open(t)
			err := s.mergeSnapshot(0, []kvEntry{
				{key: "c", ver: 3, val: []byte("vc")},
				{key: "a", ver: 10, val: []byte("va")},
				{key: "b", ver: 7, val: []byte("vb")},
				{key: "d", ver: 7, val: []byte("vd")},
			})
			if err != nil {
				t.Fatal(err)
			}
			// "b" and "d" sit exactly at the watermark: strictly-above
			// excludes them.
			got, maxVer := s.snapshotEntriesAbove(0, 7)
			if len(got) != 1 || got[0].key != "a" || got[0].ver != 10 || string(got[0].val) != "va" || maxVer != 10 {
				t.Fatalf("above 7 = %v (maxVer %d), want only a@10 (maxVer 10)", got, maxVer)
			}
			all, _ := s.snapshotEntriesAbove(0, 0)
			var keys []string
			for _, e := range all {
				keys = append(keys, e.key)
			}
			if !slices.Equal(keys, []string{"a", "b", "c", "d"}) {
				t.Errorf("above 0 = keys %v, want all four sorted", keys)
			}
			if got, _ := s.snapshotEntriesAbove(0, 10); len(got) != 0 {
				t.Errorf("above 10 = %v, want none (nothing strictly above the max)", got)
			}
			s.drop(0)
			if got, maxVer := s.snapshotEntriesAbove(0, 0); len(got) != 0 || maxVer != 10 {
				t.Errorf("after drop = %v (maxVer %d), want none with the watermark kept", got, maxVer)
			}
		})
	}
}
