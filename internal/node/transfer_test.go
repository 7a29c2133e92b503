package node

import (
	"fmt"
	"testing"
)

// transferTestConfig forces every entry into its own chunk so even the
// tiny test partitions exercise multi-chunk sessions.
func transferTestConfig() Config {
	cfg := testConfig()
	cfg.TransferChunkEntries = 1
	return cfg
}

// seedPartition plants count entries directly into a node's partition
// with ascending versions, bypassing routing — transfer tests care
// about shipping state, not producing it.
func seedPartition(t *testing.T, nd *Node, p, count int) []kvEntry {
	t.Helper()
	var entries []kvEntry
	for i := 0; i < count; i++ {
		entries = append(entries, kvEntry{
			key: fmt.Sprintf("xfer-%d-%d", p, i),
			val: []byte(fmt.Sprintf("value-%d", i)),
			ver: uint64(i + 1),
		})
	}
	if err := nd.store.mergeSnapshot(p, entries); err != nil {
		t.Fatalf("seed partition %d: %v", p, err)
	}
	return entries
}

func TestTransferChunkedRoundTrip(t *testing.T) {
	h := newHarness(t, "loopback", 3, transferTestConfig())
	src, dst := h.nodes[0], h.nodes[1]
	const p = 0
	entries := seedPartition(t, src, p, 5)
	dst.store.drop(p)
	if dst.store.isResident(p) {
		t.Fatal("dropped partition still resident")
	}

	if !src.TransferPartition(p, 1) {
		t.Fatal("TransferPartition did not complete")
	}
	for _, e := range entries {
		v, ver, ok := dst.store.get(p, e.key)
		if !ok || string(v) != string(e.val) || ver != e.ver {
			t.Fatalf("key %q after transfer: val=%q ver=%d ok=%v, want %q/%d", e.key, v, ver, ok, e.val, e.ver)
		}
	}
	if !dst.store.isResident(p) {
		t.Error("target not resident after completed marked transfer")
	}
	if holds := src.store.holdCount(p); holds != 0 {
		t.Errorf("source still holds %d snapshot leases after completion", holds)
	}
	st := src.TransferStats()
	if st.Started != 1 || st.Completed != 1 || st.ChunksSent != 5 || st.Resumed != 0 {
		t.Errorf("stats = %+v, want started=1 completed=1 chunks=5 resumed=0", st)
	}
}

// TestTransferResumesFromTargetCursor pins the resume contract: after
// an interrupted round, the source's next pump probes the target's
// cursor and continues from it instead of restarting the session —
// already-delivered chunks are never re-sent.
func TestTransferResumesFromTargetCursor(t *testing.T) {
	h := newHarness(t, "loopback", 3, transferTestConfig())
	src, dst := h.nodes[0], h.nodes[1]
	const p = 1
	seedPartition(t, src, p, 4)
	dst.store.drop(p)

	src.mu.RLock()
	src.startTransferLocked(p, 1, true)
	src.mu.RUnlock()
	// Freeze the session by hand as a full plan — the scenario models a
	// prior round whose planning probe and begin already happened.
	entries, maxVer := src.store.snapshotEntries(p)
	src.xmu.Lock()
	sess := src.xfers[0]
	sess.chunks = sliceChunks(entries, src.cfg.TransferChunkEntries)
	sess.maxVer = maxVer
	sess.planned = true
	src.xmu.Unlock()

	// Simulate a prior round that died after the begin and one chunk:
	// the target holds the session with its cursor at 1, the source
	// only knows the round was interrupted.
	total := uint32(len(sess.chunks))
	if total != 4 {
		t.Fatalf("expected 4 chunks, got %d", total)
	}
	if _, _, _, err := dst.store.beginInbound(p, sess.id, total, true, sess.maxVer); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dst.store.applyChunk(p, sess.id, 0, sess.chunks[0]); err != nil {
		t.Fatal(err)
	}
	src.xmu.Lock()
	sess.begun = true
	sess.interrupted = true
	src.xmu.Unlock()

	if !src.pumpSession(sess) {
		t.Fatal("pump after interruption did not complete the session")
	}
	st := src.TransferStats()
	if st.Resumed != 1 {
		t.Errorf("Resumed = %d, want 1 (cursor adopted from target)", st.Resumed)
	}
	if st.ChunksSent != int64(total)-1 {
		t.Errorf("ChunksSent = %d, want %d (chunk 0 must not be re-sent)", st.ChunksSent, total-1)
	}
	if !dst.store.isResident(p) {
		t.Error("target not resident after resumed transfer completed")
	}
}

// TestInboundSessionIdempotence pins the target-side replay contract:
// a replayed begin re-finds the live session (and answers "complete"
// once it finished), and a duplicated or reordered chunk is acked
// without moving the cursor or touching the data.
func TestInboundSessionIdempotence(t *testing.T) {
	s := newStore(4)
	const p, sid = 2, uint64(42)
	chunk0 := []kvEntry{{key: "a", val: []byte("1"), ver: 5}}
	chunk1 := []kvEntry{{key: "b", val: []byte("2"), ver: 6}}

	if next, _, _, err := s.beginInbound(p, sid, 2, true, 9); err != nil || next != 0 {
		t.Fatalf("fresh begin: next=%d err=%v", next, err)
	}
	if v := s.parts[p].maxVer; v != 9 {
		t.Fatalf("begin did not adopt source watermark: maxVer=%d", v)
	}
	if next, known, err := s.applyChunk(p, sid, 0, chunk0); err != nil || !known || next != 1 {
		t.Fatalf("chunk 0: next=%d known=%v err=%v", next, known, err)
	}
	// Replayed begin: the session exists, so the reply is its cursor,
	// not a reset to 0.
	if next, _, _, err := s.beginInbound(p, sid, 2, true, 9); err != nil || next != 1 {
		t.Fatalf("replayed begin: next=%d err=%v, want cursor 1", next, err)
	}
	// Duplicate chunk 0: acked with the current cursor, nothing moves.
	if next, known, err := s.applyChunk(p, sid, 0, chunk0); err != nil || !known || next != 1 {
		t.Fatalf("duplicate chunk: next=%d known=%v err=%v", next, known, err)
	}
	// Premature done: retry with the cursor.
	if next, known, complete, err := s.finishInbound(p, sid); err != nil || !known || complete || next != 1 {
		t.Fatalf("premature done: next=%d known=%v complete=%v err=%v", next, known, complete, err)
	}
	if next, known, err := s.applyChunk(p, sid, 1, chunk1); err != nil || !known || next != 2 {
		t.Fatalf("chunk 1: next=%d known=%v err=%v", next, known, err)
	}
	if _, known, complete, err := s.finishInbound(p, sid); err != nil || !known || !complete {
		t.Fatalf("done: known=%v complete=%v err=%v", known, complete, err)
	}
	// Post-completion replays: begin, chunk and done all answer
	// "already complete".
	if next, _, _, err := s.beginInbound(p, sid, 2, true, 9); err != nil || next != xferComplete {
		t.Fatalf("begin after completion: next=%d err=%v", next, err)
	}
	if next, known, err := s.applyChunk(p, sid, 0, chunk0); err != nil || !known || next != xferComplete {
		t.Fatalf("chunk after completion: next=%d known=%v err=%v", next, known, err)
	}
	if next, known, complete, err := s.finishInbound(p, sid); err != nil || !known || !complete || next != xferComplete {
		t.Fatalf("done after completion: next=%d known=%v complete=%v err=%v", next, known, complete, err)
	}
	// An unknown session answers known=false everywhere: the source
	// must re-begin.
	if _, known, _ := s.applyChunk(p, 999, 0, chunk0); known {
		t.Error("chunk for unknown session claimed known")
	}
	if _, known := s.inboundCursor(p, 999); known {
		t.Error("cursor probe for unknown session claimed known")
	}
}

// TestDropInvalidatesInboundSessions pins the drop/transfer
// interaction: a drop discards the entries an inbound session already
// merged, so the session (and the done-list) must die with the data —
// a post-drop chunk or done answers unknown (StatusNotFound on the
// wire) and the source re-begins from chunk 0 over the emptied
// partition. Letting the cursor survive would finish the session with
// only a suffix of the source snapshot and mark the partition
// resident with acked keys silently missing.
func TestDropInvalidatesInboundSessions(t *testing.T) {
	for _, mode := range storeModes {
		t.Run(mode.name, func(t *testing.T) {
			testDropInvalidatesInboundSessions(t, mode.open(t))
		})
	}
}

func testDropInvalidatesInboundSessions(t *testing.T, s *store) {
	const p = 1
	chunk := []kvEntry{{key: "a", val: []byte("1"), ver: 1}}

	// A mid-flight session: begun, one of two chunks merged.
	const live = uint64(7)
	if next, _, _, err := s.beginInbound(p, live, 2, true, 0); err != nil || next != 0 {
		t.Fatalf("begin: next=%d err=%v", next, err)
	}
	if _, known, err := s.applyChunk(p, live, 0, chunk); err != nil || !known {
		t.Fatalf("chunk 0: known=%v err=%v", known, err)
	}
	// A session completed and retired to the done-list before the drop.
	const finished = uint64(8)
	if _, _, _, err := s.beginInbound(p, finished, 1, false, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.applyChunk(p, finished, 0, chunk); err != nil {
		t.Fatal(err)
	}
	if _, _, complete, err := s.finishInbound(p, finished); err != nil || !complete {
		t.Fatalf("finish: complete=%v err=%v", complete, err)
	}

	s.drop(p)
	if ps := &s.parts[p]; len(ps.inbound) != 0 || len(ps.done) != 0 {
		t.Fatalf("drop kept sessions %v and done-list %v", ps.inbound, ps.done)
	}

	if _, known, _ := s.applyChunk(p, live, 1, chunk); known {
		t.Error("post-drop chunk still found the session")
	}
	if _, known, _, _ := s.finishInbound(p, live); known {
		t.Error("post-drop done still found the session")
	}
	if _, known := s.inboundCursor(p, live); known {
		t.Error("post-drop cursor probe still found the session")
	}
	if next, _, _, err := s.beginInbound(p, live, 2, true, 0); err != nil || next != 0 {
		t.Fatalf("re-begin after drop: next=%d err=%v, want cursor 0", next, err)
	}
	// The done-list cleared too: a replayed begin of the pre-drop
	// completed session re-runs it instead of answering "complete" over
	// an emptied partition.
	if next, _, _, err := s.beginInbound(p, finished, 1, false, 0); err != nil || next != 0 {
		t.Fatalf("replayed begin of pre-drop session: next=%d err=%v, want cursor 0", next, err)
	}

	// resetEmpty (lost-data reseed) invalidates the same way.
	s.resetEmpty(p)
	if _, known, _ := s.applyChunk(p, live, 0, chunk); known {
		t.Error("post-reset chunk still found the session")
	}
}

// TestSessionIDsUniqueAcrossRestart pins the boot-generation scheme:
// ids issued after a crash+restart must not collide with pre-crash
// ids — targets durably remember completed session ids, so a reused
// id would be answered "already complete" without anything shipping.
// The per-boot sequence is reset by hand because the harness keeps
// the Node object across simulated restarts; a real process restart
// starts from zero, and only the persisted generation keeps the ids
// apart.
func TestSessionIDsUniqueAcrossRestart(t *testing.T) {
	cfg := transferTestConfig()
	cfg.DataDir = t.TempDir()
	f, err := NewFleet(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src := f.Node(0)
	const p = 0
	seedPartition(t, src, p, 2)
	src.mu.RLock()
	src.startTransferLocked(p, 1, true)
	src.mu.RUnlock()
	src.xmu.Lock()
	before := src.xfers[0].id
	src.xmu.Unlock()

	f.Crash(0)
	if err := f.Restart(0); err != nil {
		t.Fatal(err)
	}
	src.xmu.Lock()
	src.xseq = 0
	src.xmu.Unlock()
	seedPartition(t, src, p, 2)
	src.mu.RLock()
	src.startTransferLocked(p, 1, true)
	src.mu.RUnlock()
	src.xmu.Lock()
	after := src.xfers[0].id
	src.xmu.Unlock()
	if before == after {
		t.Fatalf("session id %#x reused across restart", before)
	}
}

// TestBusySessionNotLeaseExpired pins the ager/pump interaction: a
// session claimed by a concurrent pump only settles its advanced
// cursor when it finishes, so the ager sees a stale s.next and must
// skip the session instead of expiring an actively progressing
// transfer mid-pump.
func TestBusySessionNotLeaseExpired(t *testing.T) {
	cfg := transferTestConfig()
	cfg.TransferLeaseEpochs = 1
	f, err := NewFleet(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src := f.Node(0)
	const p = 2
	seedPartition(t, src, p, 3)
	f.Crash(1)

	src.mu.RLock()
	src.startTransferLocked(p, 1, true)
	src.mu.RUnlock()
	src.xmu.Lock()
	sess := src.xfers[0]
	sess.busy = true // a concurrent shipPartition pump holds the session
	src.xmu.Unlock()

	for i := 0; i < cfg.TransferLeaseEpochs+3; i++ {
		src.pumpTransfers()
	}
	if st := src.TransferStats(); st.Expired != 0 {
		t.Fatalf("busy session lease-expired: %+v", st)
	}
	if holds := src.store.holdCount(p); holds != 1 {
		t.Fatalf("holds = %d while the session is claimed, want 1", holds)
	}

	// The pump settles: aging resumes, and the genuinely stuck session
	// (target crashed) expires as before.
	src.xmu.Lock()
	sess.busy = false
	src.xmu.Unlock()
	for i := 0; i < cfg.TransferLeaseEpochs+2; i++ {
		src.pumpTransfers()
	}
	if st := src.TransferStats(); st.Expired != 1 {
		t.Fatalf("released session never expired: %+v", st)
	}
	if holds := src.store.holdCount(p); holds != 0 {
		t.Fatalf("holds = %d after expiry, want 0", holds)
	}
}

// TestTransferLeaseExpiryFreesHold pins the lease: a session making no
// cursor progress for TransferLeaseEpochs pumps is abandoned and its
// compaction hold released — a crashed target cannot pin the source's
// snapshot forever.
func TestTransferLeaseExpiryFreesHold(t *testing.T) {
	cfg := transferTestConfig()
	cfg.TransferLeaseEpochs = 2
	f, err := NewFleet(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	src := f.Node(0)
	const p = 3
	seedPartition(t, src, p, 3)
	f.Crash(1) // target unreachable: every pump round fails

	src.mu.RLock()
	src.startTransferLocked(p, 1, true)
	src.mu.RUnlock()
	if holds := src.store.holdCount(p); holds != 1 {
		t.Fatalf("holds after start = %d, want 1", holds)
	}

	for i := 0; i < cfg.TransferLeaseEpochs+2; i++ {
		src.pumpTransfers()
	}
	if holds := src.store.holdCount(p); holds != 0 {
		t.Errorf("holds after lease expiry = %d, want 0", holds)
	}
	st := src.TransferStats()
	if st.Expired != 1 || st.Completed != 0 {
		t.Errorf("stats = %+v, want expired=1 completed=0", st)
	}
	src.xmu.Lock()
	live := len(src.xfers)
	src.xmu.Unlock()
	if live != 0 {
		t.Errorf("%d sessions still tracked after expiry", live)
	}
}
