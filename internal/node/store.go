package node

import (
	"sync"

	"repro/internal/durable"
)

// entry is one stored record: the value bytes and the per-key version
// the primary stamped when the write was accepted. Versions order
// divergent copies of the same key across holders: quorum reads pick
// the highest, and apply paths never let a lower version clobber a
// higher one.
type entry struct {
	val []byte
	ver uint64
}

// versionEpochShift positions the current epoch in a fresh version's
// high bits: stampPut issues max(maxVer, epoch<<versionEpochShift)+1.
// The epoch term keeps versions monotone across primary failover — a
// successor is only promoted after at least one full suspicion epoch,
// so its first stamp (at a strictly later epoch) exceeds anything the
// dead primary issued, even stamps the successor never saw — while the
// max(maxVer, ·) term keeps them monotone within an epoch. The shift
// bounds writes at 2^20 per partition per epoch before the counter
// could spill into the next epoch's range; at the paper's traffic
// scales that is orders of magnitude of headroom.
const versionEpochShift = 20

// store is the node's partitioned KV data plus the per-partition
// traffic counters for the epoch in flight. Partition maps exist for
// every partition regardless of whether the node currently holds a
// replica — holding is a property of the view, and an empty map for a
// non-held partition costs nothing.
//
// The store is the only in-memory owner of partition state. When eng
// is non-nil it is durably backed: every mutation appends to the
// partition's write-ahead log (synced) BEFORE touching the shard, and
// an append failure refuses the mutation — the quorum plane never acks
// a write the disk did not take. The engine keeps no copy; its
// compactions snapshot the shard, which compactIfDueLocked hands over
// under the shard lock. Values are immutable once installed (every
// apply installs a fresh copy), so snapshots share them by reference.
//
// resident tracks whether the partition's local content is
// authoritative: view membership and store content move at different
// speeds (a drop order lands an epoch before the placement claim that
// removes the holder from peer views, and a claim can add a holder an
// epoch before its snapshot arrives), so "the view says I hold it"
// does not imply "my data is complete". The read path serves locally
// only from resident partitions and forwards everything else to the
// primary, and sync application is gated on residency so a delayed
// KindSync cannot resurrect records in a dropped partition. A fresh
// store at node birth is resident everywhere — the cluster starts
// empty, so empty content IS authoritative — while a post-restart
// store (see newBlankStore) is resident nowhere until snapshots
// rebuild it.
//
// maxVer is the highest version this shard has ever observed for any
// key; stampPut derives the next version from it. It survives drop so
// a holder that loses and later regains a partition never re-issues a
// version it already handed out.
//
// Concurrency: every partition carries its own mutex, so data-plane
// requests for different partitions never contend and requests for the
// same partition serialise only around the map touch. Lock hierarchy:
// a partition lock may be taken while holding Node.mu (either mode),
// never the reverse. The engine's per-partition lock is a leaf below
// the shard lock.
type store struct {
	parts []partitionShard
	eng   *durable.Engine // nil = pure in-memory
}

type partitionShard struct {
	mu       sync.Mutex
	data     map[string]entry
	bytes    int // sum of len(key)+len(val) over data
	resident bool
	maxVer   uint64
	counters partitionCounters
	// inbound is the partition's live inbound transfer sessions; done
	// remembers recently completed session ids so a replayed begin/done
	// is answered "already complete" instead of re-running the session.
	inbound []durable.Session
	done    []uint64
	// holds counts outbound transfer sessions currently freezing this
	// partition's snapshot (the lease the source holds so compaction
	// cannot GC state an in-flight transfer still needs). While it is
	// non-zero a due compaction waits for the last releaseHold.
	holds int
	// tree is the partition's live anti-entropy digest, maintained
	// incrementally by install/clear (O(1) per write). Reading it costs
	// nothing, which is what lets top digests piggyback on every stats
	// broadcast and transfer probes answer with a digest without
	// rehashing the partition.
	tree AETree
}

func newStore(partitions int) *store {
	s := &store{parts: make([]partitionShard, partitions)}
	for p := range s.parts {
		s.parts[p].data = make(map[string]entry)
		s.parts[p].resident = true
		s.parts[p].counters.partition = p
	}
	return s
}

// newBlankStore is newStore for a restarted node: all data was lost,
// so no partition is resident until a snapshot restores it.
func newBlankStore(partitions int) *store {
	s := newStore(partitions)
	for p := range s.parts {
		s.parts[p].resident = false
	}
	return s
}

// openDurableStore opens (or recovers) cfg.DataDir and builds the store
// from what recovery replayed; see newDurableStore for trustResident.
func openDurableStore(cfg *Config, trustResident bool) (*store, error) {
	var sync durable.Syncer = durable.NoSync{}
	if cfg.Fsync {
		sync = durable.OSSync{}
	}
	eng, rec, err := durable.Open(durable.Options{
		Dir:          cfg.DataDir,
		Partitions:   cfg.Partitions,
		Sync:         sync,
		CompactEvery: cfg.WALCompactEvery,
	})
	if err != nil {
		return nil, err
	}
	return newDurableStore(eng, rec, trustResident), nil
}

// newDurableStore builds the store over a durable engine from the
// per-partition state its Open replayed; the store takes ownership of
// rec. trustResident distinguishes first boot from rejoin: a node
// opening its data dir at birth serves its recovered residency as-is,
// while a node restarting into a cluster that moved on must not serve
// possibly-stale recovered content — every partition rejoins
// non-resident (like newBlankStore) but KEEPS the recovered data, so
// the rejoin path can push it back to the current holders instead of
// losing it.
func newDurableStore(eng *durable.Engine, rec []durable.PartitionState, trustResident bool) *store {
	s := newStore(len(rec))
	s.eng = eng
	for p, st := range rec {
		ps := &s.parts[p]
		for _, e := range st.Entries {
			ps.install(e.Key, entry{val: e.Val, ver: e.Ver})
		}
		ps.maxVer = st.MaxVer
		ps.resident = st.Resident && trustResident
		ps.inbound, ps.done = st.Sessions, st.Done
	}
	return s
}

// compactIfDueLocked runs the engine's compaction once a partition's
// WAL has reached the threshold, snapshotting the shard as it stands.
// Callers hold ps.mu and have applied every record they appended, so
// the snapshot covers the WAL it replaces. An outbound hold defers the
// compaction to the last releaseHold. A failure latches the engine.
func (s *store) compactIfDueLocked(p int, ps *partitionShard) error {
	if s.eng == nil || ps.holds > 0 || !s.eng.CompactDue(p) {
		return nil
	}
	st := durable.PartitionState{MaxVer: ps.maxVer, Resident: ps.resident, Sessions: ps.inbound, Done: ps.done}
	for _, e := range sortedEntries(ps.data) {
		st.Entries = append(st.Entries, durable.Entry{Key: e.key, Ver: e.ver, Val: e.val})
	}
	return s.eng.Compact(p, st)
}

// install puts one entry into the shard map, keeping the byte
// accounting and the live digest tree exact. Callers hold the shard
// lock.
func (ps *partitionShard) install(key string, e entry) {
	if old, ok := ps.data[key]; ok {
		ps.bytes -= len(key) + len(old.val)
		ps.tree.Apply(key, old.ver, old.val) // XOR removes the old record
	}
	ps.bytes += len(key) + len(e.val)
	ps.tree.Apply(key, e.ver, e.val)
	ps.data[key] = e
}

// clear empties the shard map. Callers hold the shard lock.
func (ps *partitionShard) clear() {
	ps.data = make(map[string]entry)
	ps.bytes = 0
	ps.tree = AETree{}
}

func (s *store) get(p int, key string) ([]byte, uint64, bool) {
	ps := &s.parts[p]
	ps.mu.Lock()
	e, ok := ps.data[key]
	ps.mu.Unlock()
	// Values are never mutated in place (every apply installs a fresh
	// copy), so the returned slice stays stable after the lock drops.
	return e.val, e.ver, ok
}

// stampPut is the primary's write apply: it assigns the key the next
// version — strictly above both everything this shard has seen and
// epochBase (the current epoch shifted into the version's high bits),
// so versions stay monotone across primary failover as long as
// suspicion takes at least one epoch — installs the value, and returns
// the stamped version for the sync fan-out. ok=false means the durable
// engine refused the append: nothing was applied and the write must
// not be acked.
func (s *store) stampPut(p int, key string, value []byte, epochBase uint64) (uint64, bool) {
	v := make([]byte, len(value))
	copy(v, value)
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ver := ps.maxVer
	if epochBase > ver {
		ver = epochBase
	}
	ver++
	if s.eng != nil {
		if err := s.eng.AppendPut(p, key, ver, v); err != nil {
			return 0, false
		}
	}
	ps.maxVer = ver
	ps.install(key, entry{val: v, ver: ver})
	if s.compactIfDueLocked(p, ps) != nil {
		return 0, false
	}
	return ver, true
}

// applySync applies one replicated write at a holder. acked reports
// whether this holder now durably has version ver or newer — true both
// when the write applied and when an equal-or-newer version was
// already present (a replayed or reordered sync is a success, not a
// conflict). A non-resident partition refuses (acked=false): its
// content is not authoritative, and applying would let a delayed sync
// resurrect records the same epoch's drop discarded. A durable engine
// refusing the append also refuses the ack.
func (s *store) applySync(p int, key string, value []byte, ver uint64) (acked bool) {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if !ps.resident {
		return false
	}
	if e, ok := ps.data[key]; ok && e.ver >= ver {
		return true
	}
	v := make([]byte, len(value))
	copy(v, value)
	if s.eng != nil {
		if err := s.eng.AppendPut(p, key, ver, v); err != nil {
			return false
		}
	}
	if ver > ps.maxVer {
		ps.maxVer = ver
	}
	ps.install(key, entry{val: v, ver: ver})
	return s.compactIfDueLocked(p, ps) == nil
}

// mergeEntriesLocked folds an entry block into the shard, version-aware
// per key: a record replaces the local one only if strictly newer, so a
// replayed or delayed transfer can never roll a key back. Callers hold
// the shard lock. Returns how many entries actually won their version
// race and were installed. The first engine refusal aborts the merge —
// the entries already applied are durable and version-gated, so a
// partial merge is safe to leave behind.
func (s *store) mergeEntriesLocked(p int, ps *partitionShard, entries []kvEntry) (int, error) {
	merged := 0
	for _, in := range entries {
		if e, ok := ps.data[in.key]; ok && e.ver >= in.ver {
			continue
		}
		if s.eng != nil {
			if err := s.eng.AppendPut(p, in.key, in.ver, in.val); err != nil {
				return merged, err
			}
		}
		if in.ver > ps.maxVer {
			ps.maxVer = in.ver
		}
		ps.install(in.key, entry{val: in.val, ver: in.ver})
		merged++
		if err := s.compactIfDueLocked(p, ps); err != nil {
			return merged, err
		}
	}
	return merged, nil
}

// mergeSnapshot folds an authoritative entry set into the partition
// and makes it resident. Rejoin calls it with no entries to re-adopt a
// partition this node leads again; tests and the repair bench seed
// partitions with it.
func (s *store) mergeSnapshot(p int, entries []kvEntry) error {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if _, err := s.mergeEntriesLocked(p, ps, entries); err != nil {
		return err
	}
	if s.eng != nil && !ps.resident {
		if err := s.eng.AppendResident(p); err != nil {
			return err
		}
	}
	ps.resident = true
	return s.compactIfDueLocked(p, ps)
}

// mergeResident folds an entry block into the partition only when its
// local content is already authoritative — the anti-entropy repair
// path. Unlike mergeSnapshot it never flips residency: "repairing" a
// non-resident copy would bless partial data as a full one. applied is
// false when the partition was not resident and nothing was touched.
func (s *store) mergeResident(p int, entries []kvEntry) (merged int, applied bool, err error) {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if !ps.resident {
		return 0, false, nil
	}
	merged, err = s.mergeEntriesLocked(p, ps, entries)
	return merged, true, err
}

// beginInbound opens (or re-finds) an inbound transfer session and
// returns the next chunk the target wants: 0 for a fresh session, the
// recovered cursor for a known one, xferComplete for a replayed begin
// of a finished session. srcMaxVer folds the source's version
// watermark in up front so watermark-only state transfers even if
// every chunk loses the version race. prevVer and wasResident report
// the shard's state from BEFORE that adoption — the begin reply must
// carry the pre-session watermark, because the adopted one no longer
// describes what the target's content covers.
func (s *store) beginInbound(p int, sid uint64, total uint32, markResident bool, srcMaxVer uint64) (next, prevVer uint64, wasResident bool, err error) {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	prevVer, wasResident = ps.maxVer, ps.resident
	for _, d := range ps.done {
		if d == sid {
			return xferComplete, prevVer, wasResident, nil
		}
	}
	if srcMaxVer > ps.maxVer {
		if s.eng != nil {
			if err := s.eng.AppendMaxVer(p, srcMaxVer); err != nil {
				return 0, prevVer, wasResident, err
			}
		}
		ps.maxVer = srcMaxVer
		if err := s.compactIfDueLocked(p, ps); err != nil {
			return 0, prevVer, wasResident, err
		}
	}
	for i := range ps.inbound {
		if ps.inbound[i].ID == sid {
			return uint64(ps.inbound[i].Next), prevVer, wasResident, nil
		}
	}
	sess := durable.Session{ID: sid, Next: 0, Total: total, MarkResident: markResident}
	if s.eng != nil {
		if err := s.eng.AppendCursor(p, sess); err != nil {
			return 0, prevVer, wasResident, err
		}
	}
	ps.inbound = durable.UpsertSession(ps.inbound, sess)
	return 0, prevVer, wasResident, s.compactIfDueLocked(p, ps)
}

// applyChunk applies one transfer chunk. known=false means the session
// is not (or no longer) tracked and the source must re-begin. A chunk
// that is not the exact next one is acked without applying — the
// cursor only moves forward, so duplicated or reordered chunks are
// no-ops and repeated invocation converges monotonically.
func (s *store) applyChunk(p int, sid uint64, idx uint32, entries []kvEntry) (next uint64, known bool, err error) {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, d := range ps.done {
		if d == sid {
			return xferComplete, true, nil
		}
	}
	for i := range ps.inbound {
		sess := &ps.inbound[i]
		if sess.ID != sid {
			continue
		}
		if idx != sess.Next {
			return uint64(sess.Next), true, nil
		}
		if _, err := s.mergeEntriesLocked(p, ps, entries); err != nil {
			return 0, true, err
		}
		adv := *sess
		adv.Next++
		if s.eng != nil {
			if err := s.eng.AppendCursor(p, adv); err != nil {
				return 0, true, err
			}
		}
		*sess = adv
		return uint64(adv.Next), true, s.compactIfDueLocked(p, ps)
	}
	return 0, false, nil
}

// finishInbound closes an inbound session. complete=false (with the
// cursor) means chunks are still missing; known=false means the
// session is untracked and the source must re-begin. Completion
// applies the session's residency side effect and retires the id so a
// replayed done (or begin) is idempotent.
func (s *store) finishInbound(p int, sid uint64) (next uint64, known, complete bool, err error) {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, d := range ps.done {
		if d == sid {
			return xferComplete, true, true, nil
		}
	}
	for i := range ps.inbound {
		sess := ps.inbound[i]
		if sess.ID != sid {
			continue
		}
		if sess.Next != sess.Total {
			return uint64(sess.Next), true, false, nil
		}
		if sess.MarkResident && !ps.resident {
			if s.eng != nil {
				if err := s.eng.AppendResident(p); err != nil {
					return 0, true, false, err
				}
			}
			ps.resident = true
			if err := s.compactIfDueLocked(p, ps); err != nil {
				return 0, true, false, err
			}
		}
		if s.eng != nil {
			if err := s.eng.AppendSessionDone(p, sid); err != nil {
				return 0, true, false, err
			}
		}
		ps.inbound, ps.done = durable.RetireSession(ps.inbound, ps.done, sid)
		if err := s.compactIfDueLocked(p, ps); err != nil {
			return 0, true, false, err
		}
		return xferComplete, true, true, nil
	}
	return 0, false, false, nil
}

// inboundCursor answers a resume probe: where does the target's cursor
// stand for this session?
func (s *store) inboundCursor(p int, sid uint64) (next uint64, known bool) {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, d := range ps.done {
		if d == sid {
			return xferComplete, true
		}
	}
	for i := range ps.inbound {
		if ps.inbound[i].ID == sid {
			return uint64(ps.inbound[i].Next), true
		}
	}
	return 0, false
}

// holdSnapshot freezes the partition against compaction while an
// outbound transfer session needs its state stable; releaseHold drops
// the lease, and the last release runs any compaction it deferred.
func (s *store) holdSnapshot(p int) {
	ps := &s.parts[p]
	ps.mu.Lock()
	ps.holds++
	ps.mu.Unlock()
}

func (s *store) releaseHold(p int) {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.holds--
	//lint:ignore rfhlint/errsink a failed compaction latches the engine; the next ack-path append surfaces it
	_ = s.compactIfDueLocked(p, ps)
}

// holdCount reports the partition's outstanding snapshot holds.
func (s *store) holdCount(p int) int {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.holds
}

// arriveAndTryServe is the read path's single visit to partition p:
// it records the arrival (entry vs transit) and, when this node may
// serve the key under the paper's capacity accounting, performs the
// lookup — all under one acquisition of the partition lock so the
// capacity check and the served/overflow bump are atomic. served
// reports whether the query was handled here; when false the caller
// must forward it (not a holder, not resident, or over capacity and
// not the primary).
func (s *store) arriveAndTryServe(p int, key string, entered bool, capacity int, isPrimary, hasReplica bool) (v []byte, ver uint64, ok, served bool) {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	c := &ps.counters
	if entered {
		c.origin++
	} else {
		c.transit++
	}
	if !hasReplica || !(ps.resident || isPrimary) {
		return nil, 0, false, false
	}
	underCap := c.served < capacity
	if !underCap && !isPrimary {
		return nil, 0, false, false
	}
	c.served++
	if !underCap {
		c.overflow++
	}
	e, ok := ps.data[key]
	return e.val, e.ver, ok, true
}

// localVersion answers a KindVer probe: the physically stored value
// and version for one key, independent of capacity accounting.
// resident=false means this holder has no authoritative answer.
func (s *store) localVersion(p int, key string) (v []byte, ver uint64, ok, resident bool) {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if !ps.resident {
		return nil, 0, false, false
	}
	e, ok := ps.data[key]
	return e.val, e.ver, ok, true
}

// resetEmpty restores the partition to an authoritative empty state —
// the lost-data reseed path, where every holder is gone and the
// primary re-adopts the partition as empty. maxVer is kept so any
// still-circulating version number stays below future stamps. Inbound
// transfer sessions (and the done-list) die with the data, exactly as
// in drop.
func (s *store) resetEmpty(p int) { s.wipe(p, true) }

// drop discards the partition's data (migration victim, suicide). The
// partition stops being resident: until another snapshot arrives, any
// content is someone else's responsibility. maxVer survives so a
// future re-adoption of the partition never re-issues old versions.
//
// Inbound transfer sessions are invalidated along with the data: the
// chunks a live session merged before the drop are gone, so letting it
// resume at its cursor and complete would mark the partition resident
// with only a suffix of the source snapshot — silently missing acked
// keys. With the sessions (and the done-list) cleared, a post-drop
// chunk/done/begin answers StatusNotFound or restarts at chunk 0, and
// the source re-ships the whole snapshot onto the emptied partition.
// Replaying the engine's drop record clears the sessions the same way,
// so a restart recovers the invalidation too.
func (s *store) drop(p int) { s.wipe(p, false) }

// wipe is drop and resetEmpty: it clears the partition's data and
// inbound sessions, keeps maxVer and sets residency. Engine failures
// are sticky engine-side: a wipe the disk missed surfaces on the next
// acked write, not here.
func (s *store) wipe(p int, resident bool) {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if s.eng != nil {
		journal := s.eng.AppendDrop
		if resident {
			journal = s.eng.AppendReset
		}
		_ = journal(p)
	}
	ps.clear()
	ps.resident = resident
	ps.inbound, ps.done = nil, nil
	//lint:ignore rfhlint/errsink a failed compaction latches the engine; the next ack-path append surfaces it
	_ = s.compactIfDueLocked(p, ps)
}

func (s *store) keys(p int) int {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.data)
}

// sizeBytes reports the partition's payload size (keys + values), as
// DumpInfo shows it.
func (s *store) sizeBytes(p int) int {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.bytes
}

// isResident reports whether the partition's local content is
// authoritative.
func (s *store) isResident(p int) bool {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.resident
}

// snapshotEntries flattens the partition into the canonical ascending-
// key entry slice plus the shard's version watermark — the frozen
// source state an outbound transfer session chunks from. Values are
// shared by reference (immutable by convention).
func (s *store) snapshotEntries(p int) ([]kvEntry, uint64) {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return sortedEntries(ps.data), ps.maxVer
}

// snapshotEntriesAbove freezes only the entries strictly above a
// version watermark, in ascending key order — the delta-transfer fast
// path when the target's digest proves its below-watermark content
// identical. The returned maxVer describes the same instant as the
// entry set.
func (s *store) snapshotEntriesAbove(p int, ver uint64) ([]kvEntry, uint64) {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var entries []kvEntry
	for _, e := range sortedEntries(ps.data) {
		if e.ver > ver {
			entries = append(entries, e)
		}
	}
	return entries, ps.maxVer
}

// transferInfo answers a delta-planning probe in O(1): the partition's
// version watermark, residency, and — for resident partitions — its
// live top digest. Non-resident content is not authoritative, so no
// digest is offered and the source must fall back to a full snapshot.
func (s *store) transferInfo(p int) (maxVer uint64, resident bool, leaves []uint64, root uint64) {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if !ps.resident {
		return ps.maxVer, false, nil, 0
	}
	return ps.maxVer, true, ps.tree.Leaves(), ps.tree.Root()
}

// aeDigest reads the partition's live top digest (resident partitions
// only — a partial tree would compare garbage).
func (s *store) aeDigest(p int) (leaves []uint64, root uint64, resident bool) {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if !ps.resident {
		return nil, 0, false
	}
	return ps.tree.Leaves(), ps.tree.Root(), true
}

// aeSubLeaves reads the live sub-leaf vectors for a set of top-level
// buckets under one lock acquisition.
func (s *store) aeSubLeaves(p int, tops []int) [][]uint64 {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	subs := make([][]uint64, len(tops))
	for i, b := range tops {
		subs[i] = ps.tree.SubLeaves(b)
	}
	return subs
}

// getEntries looks up a batch of keys (the KindAEFetch serving path),
// preserving request order; absent keys are skipped.
func (s *store) getEntries(p int, keys []string) []kvEntry {
	ps := &s.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := make([]kvEntry, 0, len(keys))
	for _, k := range keys {
		if e, ok := ps.data[k]; ok {
			out = append(out, kvEntry{key: k, ver: e.ver, val: e.val})
		}
	}
	return out
}

// flushCounters snapshots every partition's non-zero counters and
// resets them, so each query is reported in exactly one epoch: queries
// arriving after the flush count toward the next one.
func (s *store) flushCounters() []partitionCounters {
	var out []partitionCounters
	for p := range s.parts {
		ps := &s.parts[p]
		ps.mu.Lock()
		c := ps.counters
		ps.counters = partitionCounters{partition: p}
		ps.mu.Unlock()
		if c.origin|c.transit|c.served|c.overflow != 0 {
			out = append(out, c)
		}
	}
	return out
}
