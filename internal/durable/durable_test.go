package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func openTest(t *testing.T, dir string, compactEvery int) (*Engine, []PartitionState) {
	t.Helper()
	e, states, err := Open(Options{Dir: dir, Partitions: 4, CompactEvery: compactEvery})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return e, states
}

func mustAppend(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("append: %v", err)
	}
}

// expectState compares partition p's recovered state field by field.
func expectState(t *testing.T, states []PartitionState, p int, want PartitionState) {
	t.Helper()
	got := states[p]
	if got.MaxVer != want.MaxVer {
		t.Errorf("partition %d: maxVer %d, want %d", p, got.MaxVer, want.MaxVer)
	}
	if got.Resident != want.Resident {
		t.Errorf("partition %d: resident %v, want %v", p, got.Resident, want.Resident)
	}
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("partition %d: %d entries, want %d (%v)", p, len(got.Entries), len(want.Entries), got.Entries)
	}
	for i := range want.Entries {
		g, w := got.Entries[i], want.Entries[i]
		if g.Key != w.Key || g.Ver != w.Ver || string(g.Val) != string(w.Val) {
			t.Errorf("partition %d entry %d: got {%q %d %q}, want {%q %d %q}",
				p, i, g.Key, g.Ver, g.Val, w.Key, w.Ver, w.Val)
		}
	}
	if len(got.Sessions) != len(want.Sessions) {
		t.Fatalf("partition %d: %d sessions, want %d", p, len(got.Sessions), len(want.Sessions))
	}
	for i := range want.Sessions {
		if got.Sessions[i] != want.Sessions[i] {
			t.Errorf("partition %d session %d: got %+v, want %+v", p, i, got.Sessions[i], want.Sessions[i])
		}
	}
	if len(got.Done) != len(want.Done) {
		t.Fatalf("partition %d: %d done ids, want %d", p, len(got.Done), len(want.Done))
	}
	for i := range want.Done {
		if got.Done[i] != want.Done[i] {
			t.Errorf("partition %d done %d: got %d, want %d", p, i, got.Done[i], want.Done[i])
		}
	}
}

// TestRecoverRoundTrip closes and reopens an engine after a mixed op
// sequence and requires recovery to restore entries, maxVer, residency,
// sessions and completed-session memory exactly.
func TestRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, _ := openTest(t, dir, 1024)
	mustAppend(t, e.AppendPut(0, "a", 5, []byte("va")))
	mustAppend(t, e.AppendPut(0, "b", 6, []byte("vb")))
	mustAppend(t, e.AppendPut(0, "a", 9, []byte("va2"))) // overwrite
	mustAppend(t, e.AppendMaxVer(0, 40))                 // watermark-only raise
	mustAppend(t, e.AppendDrop(1))                       // partition 1 dropped
	mustAppend(t, e.AppendPut(2, "k", 3, []byte("v")))
	mustAppend(t, e.AppendReset(2)) // ...then reseeded empty
	mustAppend(t, e.AppendCursor(3, Session{ID: 77, Next: 2, Total: 5, MarkResident: true}))
	mustAppend(t, e.AppendSessionDone(3, 42))
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	e2, st := openTest(t, dir, 1024)
	defer func() {
		if err := e2.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}()
	expectState(t, st, 0, PartitionState{
		Entries: []Entry{{Key: "a", Ver: 9, Val: []byte("va2")}, {Key: "b", Ver: 6, Val: []byte("vb")}},
		MaxVer:  40, Resident: true,
	})
	expectState(t, st, 1, PartitionState{MaxVer: 0, Resident: false})
	expectState(t, st, 2, PartitionState{MaxVer: 3, Resident: true})
	expectState(t, st, 3, PartitionState{
		Resident: true,
		Sessions: []Session{{ID: 77, Next: 2, Total: 5, MarkResident: true}},
		Done:     []uint64{42},
	})
}

// TestDropClearsSessionState pins the replay half of drop/reset's
// session invalidation: the entries an inbound session merged before
// the drop are gone with the data, so its cursor — and the done-list
// that answers replayed begins "already complete" — must not survive
// recovery either. A recovered cursor resuming past the drop would
// complete an authoritative partial copy of the source snapshot. (The
// live half is the store's, in internal/node.)
func TestDropClearsSessionState(t *testing.T) {
	dir := t.TempDir()
	e, _ := openTest(t, dir, 1024)
	mustAppend(t, e.AppendCursor(0, Session{ID: 7, Next: 2, Total: 5, MarkResident: true}))
	mustAppend(t, e.AppendSessionDone(0, 9))
	mustAppend(t, e.AppendDrop(0))
	mustAppend(t, e.AppendCursor(1, Session{ID: 8, Next: 1, Total: 2}))
	mustAppend(t, e.AppendReset(1))
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The drop landed after the cursor records, so a restart must
	// recover no sessions.
	e2, st := openTest(t, dir, 1024)
	expectState(t, st, 0, PartitionState{Resident: false})
	expectState(t, st, 1, PartitionState{Resident: true})
	if err := e2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestGenerationBumpsPerOpen pins the boot-generation counter: every
// Open of the same directory observes a strictly higher generation,
// the uniqueness source for outbound transfer-session ids across
// process restarts.
func TestGenerationBumpsPerOpen(t *testing.T) {
	dir := t.TempDir()
	for want := uint64(1); want <= 3; want++ {
		e, _ := openTest(t, dir, 1024)
		if g := e.Generation(); g != want {
			t.Fatalf("open #%d: generation = %d, want %d", want, g, want)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

// TestTornFinalWALRecordReplaysCleanly cuts the WAL mid-record — the
// state a crash leaves behind when it interrupts an append — and
// requires recovery to replay every intact record, truncate the torn
// tail, and keep accepting appends afterwards.
func TestTornFinalWALRecordReplaysCleanly(t *testing.T) {
	for _, cut := range []int{1, 4, 9} { // inside header, inside crc, inside payload
		dir := t.TempDir()
		e, _ := openTest(t, dir, 1024)
		mustAppend(t, e.AppendPut(0, "keep", 1, []byte("v1")))
		mustAppend(t, e.AppendPut(0, "keep", 2, []byte("v2")))
		if err := e.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		// Manufacture the torn append: a record prefix without its suffix.
		torn := appendRecPut("torn", 3, []byte("never-acked"))
		path := filepath.Join(dir, "p0000.wal")
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(torn[:cut]); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		e2, st := openTest(t, dir, 1024)
		expectState(t, st, 0, PartitionState{
			Entries: []Entry{{Key: "keep", Ver: 2, Val: []byte("v2")}},
			MaxVer:  2, Resident: true,
		})
		// The file was truncated back to the intact prefix, and appending
		// resumes from there.
		mustAppend(t, e2.AppendPut(0, "after", 4, []byte("v4")))
		if err := e2.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		e3, st := openTest(t, dir, 1024)
		expectState(t, st, 0, PartitionState{
			Entries: []Entry{{Key: "after", Ver: 4, Val: []byte("v4")}, {Key: "keep", Ver: 2, Val: []byte("v2")}},
			MaxVer:  4, Resident: true,
		})
		if err := e3.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

// TestCompactionTriggersAndPreservesState drives appends past the
// CompactEvery threshold, compacting the caller's state whenever the
// engine reports one due, and checks the WAL folds into the snapshot
// without changing the recoverable state.
func TestCompactionTriggersAndPreservesState(t *testing.T) {
	dir := t.TempDir()
	e, _ := openTest(t, dir, 4)
	st := PartitionState{Resident: true}
	for i := 0; i < 10; i++ {
		ent := Entry{Key: "k" + string(rune('a'+i)), Ver: uint64(i + 1), Val: []byte{byte(i)}}
		mustAppend(t, e.AppendPut(0, ent.Key, ent.Ver, ent.Val))
		st.Entries = append(st.Entries, ent)
		st.MaxVer = ent.Ver
		if e.CompactDue(0) {
			mustAppend(t, e.Compact(0, st))
		}
	}
	stats := e.Stats(0)
	if stats.Compactions != 2 {
		t.Fatalf("compactions = %d, want 2 (10 appends at CompactEvery=4)", stats.Compactions)
	}
	if stats.WALRecords != 2 {
		t.Fatalf("wal records = %d, want 2 after last compaction", stats.WALRecords)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	e2, rec := openTest(t, dir, 4)
	expectState(t, rec, 0, st)
	if err := e2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestCrashDuringCompactionReplays manufactures both compaction crash
// windows: a leftover temp snapshot (crash before rename) and an
// installed snapshot with the full un-truncated WAL still behind it
// (crash between rename and truncation). Recovery must converge to the
// exact pre-crash state in both — including across a drop/re-put
// sequence, where blind WAL replay over the already-folded snapshot
// transiently resurrects and re-clears records.
func TestCrashDuringCompactionReplays(t *testing.T) {
	dir := t.TempDir()
	e, _ := openTest(t, dir, 1024)
	mustAppend(t, e.AppendPut(0, "x", 1, []byte("old")))
	mustAppend(t, e.AppendDrop(0))
	mustAppend(t, e.AppendPut(0, "y", 7, []byte("new")))
	mustAppend(t, e.AppendResident(0))
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	want := PartitionState{
		Entries: []Entry{{Key: "y", Ver: 7, Val: []byte("new")}},
		MaxVer:  7, Resident: true,
	}

	walPath := filepath.Join(dir, "p0000.wal")
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Window 1: crash before the rename — a garbage temp file is lying
	// around. Recovery ignores and removes it.
	tmp := filepath.Join(dir, "p0000.snap.tmp")
	if err := os.WriteFile(tmp, []byte("half-written-snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2, st := openTest(t, dir, 1024)
	expectState(t, st, 0, want)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover temp snapshot not removed (stat err %v)", err)
	}

	// Window 2: snapshot installed, WAL not yet truncated. Compact for
	// real, then restore the full pre-compaction WAL behind the new
	// snapshot.
	if err := e2.Compact(0, st[0]); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := e2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := os.WriteFile(walPath, walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	e3, st := openTest(t, dir, 1024)
	expectState(t, st, 0, want)
	if err := e3.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestAppendAfterCloseRefuses pins the ack-path contract: a closed (or
// failed) engine refuses appends instead of acking writes it cannot
// persist.
func TestAppendAfterCloseRefuses(t *testing.T) {
	dir := t.TempDir()
	e, _ := openTest(t, dir, 1024)
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := e.AppendPut(0, "k", 1, []byte("v")); err == nil {
		t.Fatal("append on a closed engine did not error")
	}
	if err := e.Compact(0, PartitionState{}); err == nil {
		t.Fatal("compaction on a closed engine did not error")
	}
	if err := e.Err(); err != nil {
		t.Fatalf("a closed engine latched %v: closing is not a failure", err)
	}
}

// TestRecordFraming pins the WAL bytes: each record is its payload
// behind a [len u32 LE][crc32 u32 LE] header, with the payload laid out
// field by field. Recovery of existing data dirs depends on it.
func TestRecordFraming(t *testing.T) {
	frame := func(payload ...byte) []byte {
		hdr := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload))
		return append(hdr, payload...)
	}
	cases := []struct {
		name      string
		got, want []byte
	}{
		{"put", appendRecPut("ab", 300, []byte("xyz")), frame(opPut, 2, 'a', 'b', 0xac, 0x02, 3, 'x', 'y', 'z')},
		{"maxver", appendRecMaxVer(5), frame(opMaxVer, 5)},
		{"drop", appendRecOp(opDrop), frame(opDrop)},
		{"cursor", appendRecCursor(Session{ID: 9, Next: 2, Total: 4, MarkResident: true}), frame(opCursor, 9, 2, 4, 1)},
		{"done", appendRecDone(7), frame(opDone, 7)},
	}
	for _, c := range cases {
		if !bytes.Equal(c.got, c.want) {
			t.Errorf("%s record = %x, want %x", c.name, c.got, c.want)
		}
	}
}
