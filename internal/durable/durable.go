// Package durable is the node's disk journal: one write-ahead log per
// partition, periodically folded into a snapshot file and truncated
// (compaction). The engine records every data-plane mutation the node
// acks — value installs, version-watermark raises, drops, reseeds,
// residency grants and inbound transfer cursors — but holds none of the
// state those records describe: the node's store is the only in-memory
// owner of partition content. Open replays snapshot + WAL once and
// hands back exactly the state the last acked append described — the
// same entry{val,ver} records, the same maxVer watermark, the same
// residency flag, the same in-flight transfer sessions — keeping no
// copy, and compaction serialises the state its caller passes in.
// PutQuorum's "ack #1 = durable local apply" contract is honest
// precisely because the ack paths append (and sync) here before they
// mutate the in-memory store.
//
// The inbound-session list policy (UpsertSession, RetireSession) lives
// here once, shared by WAL replay and the live store, so a restart
// recovers exactly the list the store was tracking.
//
// Physical syncing hides behind the Syncer interface, the same
// pattern as node.Clock: live deployments run OSSync (fsync after
// every append and around compaction renames), while deterministic
// harnesses run NoSync and rely on the OS page cache — crash
// *simulation* closes file handles without killing the process, so
// unsynced pages survive exactly like a process crash on real
// hardware.
//
// The package obeys the determinism contract (rfhlint allowlist): no
// wall clock, no unseeded randomness, and every map iteration happens
// behind a sort.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Syncer is the physical-durability knob: it is invoked with every
// file whose contents must survive a machine crash before the engine
// reports an append or compaction as durable. It mirrors node.Clock —
// the one OS effect the deterministic harnesses must be able to stub.
type Syncer interface {
	Sync(f *os.File) error
}

// OSSync fsyncs for real — the live-deployment Syncer.
type OSSync struct{}

// Sync flushes f's dirty pages to stable storage.
func (OSSync) Sync(f *os.File) error { return f.Sync() }

// NoSync skips fsync: writes still land in the OS page cache, so data
// survives process crashes (which is all the chaos harness simulates)
// but not machine crashes. Simulation mode.
type NoSync struct{}

// Sync does nothing.
func (NoSync) Sync(f *os.File) error { return nil }

// Options configures an Engine.
type Options struct {
	// Dir is the node's data directory; the engine owns it exclusively.
	Dir string
	// Partitions is the partition count; must match the node config.
	Partitions int
	// Sync is the physical-durability policy (nil means NoSync).
	Sync Syncer
	// CompactEvery folds the WAL into a snapshot once a partition has
	// accumulated that many records (0 normalises to 1024).
	CompactEvery int
}

// Entry is one key/value record of a partition's state.
type Entry struct {
	Key string
	Ver uint64
	Val []byte
}

// Session is one inbound transfer session's persisted resume state:
// the next chunk index the target expects, out of Total, and whether
// completing the session should mark the partition resident.
type Session struct {
	ID           uint64
	Next         uint32
	Total        uint32
	MarkResident bool
}

// PartitionState is one partition's durable state: what Open recovered,
// or what a compaction snapshots.
type PartitionState struct {
	Entries  []Entry // ascending key order
	MaxVer   uint64
	Resident bool
	Sessions []Session // inbound transfer cursors, arrival order
	Done     []uint64  // recently completed inbound session ids
}

// PartitionStats is the per-partition introspection surfaced in dumps.
type PartitionStats struct {
	WALRecords  int // records appended since the last compaction
	Compactions int // compactions since open
}

// Inbound-session list caps: the list keeps the newest maxSessions
// cursors and the newest maxDone completed ids (the memory that keeps
// replayed transfer-begins idempotent).
const (
	maxSessions = 4
	maxDone     = 8
)

// UpsertSession replaces the session with s.ID in list, or appends s
// and evicts the oldest session past the cap. WAL replay and the live
// store both go through it, so their lists evolve identically.
func UpsertSession(list []Session, s Session) []Session {
	for i := range list {
		if list[i].ID == s.ID {
			list[i] = s
			return list
		}
	}
	list = append(list, s)
	if len(list) > maxSessions {
		list = list[len(list)-maxSessions:]
	}
	return list
}

// RetireSession removes session sid from list and remembers it in done,
// evicting the oldest completed id past the cap.
func RetireSession(list []Session, done []uint64, sid uint64) ([]Session, []uint64) {
	for i := range list {
		if list[i].ID == sid {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	done = append(done, sid)
	if len(done) > maxDone {
		done = done[len(done)-maxDone:]
	}
	return list, done
}

// engPart is one partition's journal: the open WAL handle and its
// record and compaction counters. It holds no partition content.
type engPart struct {
	mu          sync.Mutex
	wal         *os.File
	walRecords  int
	compactions int
}

// Engine is the durable journal. All methods are safe for concurrent
// use; different partitions never contend.
type Engine struct {
	opts  Options
	parts []engPart
	gen   uint64 // boot generation: bumped and persisted once per Open

	emu    sync.Mutex
	err    error // sticky: first IO failure; all later appends refuse
	closed bool
}

// Open creates or recovers an engine over dir: for every partition it
// loads the snapshot (if any), replays the WAL on top — truncating a
// torn final record — and keeps the WAL open for appends. The replayed
// state of partition p comes back as states[p], entries in ascending
// key order; the engine keeps no copy of it. Leftover *.tmp files from
// an interrupted compaction are removed; a snapshot is only ever
// installed by an atomic rename, so a crash between the rename and the
// WAL truncation simply replays the whole WAL over the new snapshot,
// which converges to the same state (every WAL op is a blind
// last-writer-wins set, so re-applying a suffix that the snapshot
// already folded in is a no-op).
func Open(opts Options) (*Engine, []PartitionState, error) {
	if opts.Partitions <= 0 {
		return nil, nil, fmt.Errorf("durable: partitions must be positive, got %d", opts.Partitions)
	}
	if opts.Sync == nil {
		opts.Sync = NoSync{}
	}
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = 1024
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	e := &Engine{opts: opts, parts: make([]engPart, opts.Partitions)}
	if err := e.bumpGeneration(); err != nil {
		return nil, nil, err
	}
	states := make([]PartitionState, opts.Partitions)
	for p := range e.parts {
		st, err := e.openPartition(p)
		if err != nil {
			e.closeAll()
			return nil, nil, err
		}
		states[p] = st
	}
	return e, states, nil
}

// bumpGeneration increments and persists the data dir's boot
// generation — a counter that distinguishes every Open of the same
// directory. Nodes fold it into outbound transfer-session ids so a
// restarted process never re-issues an id an earlier boot already
// used: targets durably remember completed session ids, and a reused
// id would be answered "already complete" without any data moving.
// The write is temp-file + atomic rename; a crash before the rename
// re-derives the same value next boot, which is safe because the
// interrupted Open never handed the generation to a running node.
func (e *Engine) bumpGeneration() error {
	path := filepath.Join(e.opts.Dir, "gen")
	buf, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return fmt.Errorf("durable: generation read: %w", err)
	case len(buf) != 8:
		return fmt.Errorf("durable: generation file %s malformed (%d bytes)", path, len(buf))
	default:
		e.gen = binary.LittleEndian.Uint64(buf)
	}
	e.gen++
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, e.gen)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: generation write: %w", err)
	}
	if _, err := f.Write(out); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: generation write: %w", err)
	}
	if err := e.opts.Sync.Sync(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: generation sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: generation close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("durable: generation rename: %w", err)
	}
	if err := e.syncDir(); err != nil {
		return fmt.Errorf("durable: generation dir sync: %w", err)
	}
	return nil
}

// Generation returns the data dir's boot generation: how many times
// this directory has been Opened, this boot included. It is fixed for
// the engine's lifetime.
func (e *Engine) Generation() uint64 { return e.gen }

func (e *Engine) walPath(p int) string {
	return filepath.Join(e.opts.Dir, fmt.Sprintf("p%04d.wal", p))
}

func (e *Engine) snapPath(p int) string {
	return filepath.Join(e.opts.Dir, fmt.Sprintf("p%04d.snap", p))
}

// openPartition recovers one partition: snapshot, then WAL replay.
func (e *Engine) openPartition(p int) (PartitionState, error) {
	r := newReplay()
	// An interrupted compaction can leave a half-written temp snapshot;
	// it was never installed, so it is garbage.
	if err := os.Remove(e.snapPath(p) + ".tmp"); err != nil && !os.IsNotExist(err) {
		return PartitionState{}, fmt.Errorf("durable: partition %d: %w", p, err)
	}
	if err := loadSnapshot(e.snapPath(p), r); err != nil {
		return PartitionState{}, err
	}
	f, err := os.OpenFile(e.walPath(p), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return PartitionState{}, fmt.Errorf("durable: partition %d: %w", p, err)
	}
	n, err := replayWAL(f, r)
	if err != nil {
		_ = f.Close()
		return PartitionState{}, err
	}
	ps := &e.parts[p]
	ps.walRecords = n
	ps.wal = f
	return r.state(), nil
}

// Stats returns partition p's WAL and compaction counters.
func (e *Engine) Stats(p int) PartitionStats {
	ps := &e.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return PartitionStats{WALRecords: ps.walRecords, Compactions: ps.compactions}
}

// Err returns the engine's sticky failure, if any: the first IO error
// any append or compaction hit. Once set, every ack-bearing append
// refuses — the node keeps running but stops claiming durability.
func (e *Engine) Err() error {
	e.emu.Lock()
	defer e.emu.Unlock()
	return e.err
}

func (e *Engine) fail(err error) error {
	e.emu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.emu.Unlock()
	return err
}

var errClosed = errors.New("durable: engine closed")

func (e *Engine) failed() error {
	e.emu.Lock()
	defer e.emu.Unlock()
	if e.closed {
		return errClosed
	}
	return e.err
}

// AppendPut records one value install: data[key] = {ver, val} and
// maxVer = max(maxVer, ver).
func (e *Engine) AppendPut(p int, key string, ver uint64, val []byte) error {
	return e.append(p, appendRecPut(key, ver, val))
}

// AppendMaxVer records a version-watermark raise without a value
// install (the applySync path acking an equal-or-newer replay).
func (e *Engine) AppendMaxVer(p int, ver uint64) error {
	return e.append(p, appendRecMaxVer(ver))
}

// AppendDrop records a partition drop: data cleared, residency
// revoked, maxVer kept (re-adoption must never re-issue versions).
// Inbound transfer sessions and the done-list clear too — the chunks a
// live session merged before the drop are gone, so a recovered cursor
// resuming past them would complete an authoritative partial copy.
func (e *Engine) AppendDrop(p int) error {
	return e.append(p, appendRecOp(opDrop))
}

// AppendReset records an authoritative-empty reseed: data cleared,
// resident, maxVer kept, sessions invalidated (as in AppendDrop).
func (e *Engine) AppendReset(p int) error {
	return e.append(p, appendRecOp(opReset))
}

// AppendResident records a residency grant (snapshot merge completed,
// or an inbound transfer finished with MarkResident).
func (e *Engine) AppendResident(p int) error {
	return e.append(p, appendRecOp(opResident))
}

// AppendCursor records an inbound transfer session's resume cursor —
// the record that lets a restarted target continue a chunked transfer
// where it stopped instead of starting over.
func (e *Engine) AppendCursor(p int, s Session) error {
	return e.append(p, appendRecCursor(s))
}

// AppendSessionDone records an inbound session's completion; the id is
// remembered so a replayed transfer-begin after completion stays
// idempotent across restarts.
func (e *Engine) AppendSessionDone(p int, sid uint64) error {
	return e.append(p, appendRecDone(sid))
}

// append writes one framed record and syncs it. Only a nil return makes
// the record durable, and only then may the caller apply and ack the
// mutation. Any IO failure is sticky.
func (e *Engine) append(p int, rec []byte) error {
	if err := e.failed(); err != nil {
		return err
	}
	ps := &e.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if _, err := ps.wal.Write(rec); err != nil {
		return e.fail(fmt.Errorf("durable: partition %d: wal append: %w", p, err))
	}
	if err := e.opts.Sync.Sync(ps.wal); err != nil {
		return e.fail(fmt.Errorf("durable: partition %d: wal sync: %w", p, err))
	}
	ps.walRecords++
	return nil
}

// CompactDue reports whether partition p's WAL has reached the
// CompactEvery threshold. The caller owns the state a compaction
// snapshots, so the caller decides when to run it: right after applying
// the record that tripped the threshold, or — while an outbound
// transfer holds the partition — once the last hold clears.
func (e *Engine) CompactDue(p int) bool {
	ps := &e.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.walRecords >= e.opts.CompactEvery
}

// Compact folds partition p's WAL into a snapshot of st: it writes st
// to a temp snapshot, atomically renames it into place, and truncates
// the WAL. st must have every appended record applied — the caller
// holds the lock it appends under, so no record lands between reading
// st and the truncation — and list its entries in ascending key order.
// A failure latches Err(). Crash windows: before the rename the temp
// file is garbage (removed at next open); between rename and truncation
// recovery replays the full WAL over the new snapshot, which is
// idempotent (see Open).
func (e *Engine) Compact(p int, st PartitionState) error {
	if err := e.failed(); err != nil {
		return err
	}
	ps := &e.parts[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	// ps.wal is nil once Close ran: a straggling releaseHold (a transfer
	// pump racing a shutdown) must not write a snapshot after the crash.
	if ps.wal == nil {
		return errClosed
	}
	if err := e.compactLocked(p, ps, st); err != nil {
		return e.fail(fmt.Errorf("durable: partition %d: %w", p, err))
	}
	ps.walRecords = 0
	ps.compactions++
	return nil
}

func (e *Engine) compactLocked(p int, ps *engPart, st PartitionState) error {
	if err := writeSnapshot(e.snapPath(p), st, e.opts.Sync); err != nil {
		return err
	}
	if err := e.syncDir(); err != nil {
		return err
	}
	if err := ps.wal.Truncate(0); err != nil {
		return fmt.Errorf("wal truncate: %w", err)
	}
	if _, err := ps.wal.Seek(0, 0); err != nil {
		return fmt.Errorf("wal seek: %w", err)
	}
	if err := e.opts.Sync.Sync(ps.wal); err != nil {
		return fmt.Errorf("wal sync: %w", err)
	}
	return nil
}

// syncDir makes a snapshot rename durable (directory metadata).
func (e *Engine) syncDir() error {
	if _, ok := e.opts.Sync.(NoSync); ok {
		return nil
	}
	d, err := os.Open(e.opts.Dir)
	if err != nil {
		return err
	}
	serr := e.opts.Sync.Sync(d)
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Close releases every file handle. It does NOT compact: recovery
// must work from whatever snapshot+WAL pair is on disk at any instant,
// and a shutdown that exercised that path is a shutdown that proved
// it. Close after Close (or after a crash-simulation close) is a
// no-op.
func (e *Engine) Close() error {
	e.emu.Lock()
	if e.closed {
		e.emu.Unlock()
		return nil
	}
	e.closed = true
	e.emu.Unlock()
	return e.closeAll()
}

func (e *Engine) closeAll() error {
	var first error
	for p := range e.parts {
		ps := &e.parts[p]
		ps.mu.Lock()
		if ps.wal != nil {
			if err := ps.wal.Close(); err != nil && first == nil {
				first = err
			}
			ps.wal = nil
		}
		ps.mu.Unlock()
	}
	return first
}
