package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// WAL record framing: every record is
//
//	[len u32 LE][crc32(payload) u32 LE][payload]
//
// with payload = op byte + op-specific fields (uvarint-encoded, keys
// and values length-prefixed). One WAL file per partition, so records
// carry no partition field. A record whose header, body or checksum is
// incomplete marks the torn tail of an interrupted append: replay
// truncates the file back to the last intact record and resumes
// appending from there — the torn suffix was never acked, so cutting
// it is correct, not lossy.

// WAL op codes. All ops are blind last-writer-wins sets over the
// partition state, which is what makes replaying a WAL suffix that a
// snapshot already folded in idempotent.
const (
	opPut      byte = 1 // key, ver, val: install + raise maxVer
	opMaxVer   byte = 2 // ver: raise maxVer only
	opDrop     byte = 3 // clear data+sessions, resident=false, keep maxVer
	opReset    byte = 4 // clear data+sessions, resident=true, keep maxVer
	opResident byte = 5 // resident=true
	opCursor   byte = 6 // sid, next, total, mark: inbound session cursor
	opDone     byte = 7 // sid: inbound session completed
)

// walHeaderLen is the per-record frame header: length + checksum.
const walHeaderLen = 8

// maxRecord bounds a single record so a corrupt length prefix cannot
// trigger a giant allocation; generous against the largest value the
// transport would ever have carried in.
const maxRecord = 64 << 20

// newRecord starts a WAL record in one buffer: the frame header's
// bytes reserved, then the op byte. size is an upper bound on the
// fields still to come, so appending them never reallocates.
func newRecord(op byte, size int) []byte {
	rec := make([]byte, walHeaderLen, walHeaderLen+1+size)
	return append(rec, op)
}

// sealRecord patches the frame header over a finished record: the
// payload's length and checksum.
func sealRecord(rec []byte) []byte {
	payload := rec[walHeaderLen:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	return rec
}

func appendRecPut(key string, ver uint64, val []byte) []byte {
	p := newRecord(opPut, 3*binary.MaxVarintLen64+len(key)+len(val))
	p = binary.AppendUvarint(p, uint64(len(key)))
	p = append(p, key...)
	p = binary.AppendUvarint(p, ver)
	p = binary.AppendUvarint(p, uint64(len(val)))
	p = append(p, val...)
	return sealRecord(p)
}

func appendRecMaxVer(ver uint64) []byte {
	return sealRecord(binary.AppendUvarint(newRecord(opMaxVer, binary.MaxVarintLen64), ver))
}

func appendRecOp(op byte) []byte {
	return sealRecord(newRecord(op, 0))
}

func appendRecCursor(s Session) []byte {
	p := newRecord(opCursor, 3*binary.MaxVarintLen64+1)
	p = binary.AppendUvarint(p, s.ID)
	p = binary.AppendUvarint(p, uint64(s.Next))
	p = binary.AppendUvarint(p, uint64(s.Total))
	return sealRecord(appendBool(p, s.MarkResident))
}

func appendRecDone(sid uint64) []byte {
	return sealRecord(binary.AppendUvarint(newRecord(opDone, binary.MaxVarintLen64), sid))
}

// replay is one partition's state while recovery folds its snapshot
// and WAL together. data is the only copy of the partition's content
// the engine ever holds: state() turns it into the sorted Entries Open
// hands back, and the replay is dropped after boot.
type replay struct {
	PartitionState
	data map[string]Entry
}

func newReplay() *replay {
	// A brand-new partition is resident: the cluster starts empty, so
	// empty content IS authoritative — the same birth semantics as the
	// in-memory store.
	return &replay{PartitionState: PartitionState{Resident: true}, data: make(map[string]Entry)}
}

// state returns the replayed partition state, entries in ascending key
// order.
func (r *replay) state() PartitionState {
	keys := make([]string, 0, len(r.data))
	for k := range r.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	st := r.PartitionState
	st.Entries = make([]Entry, 0, len(keys))
	for _, k := range keys {
		st.Entries = append(st.Entries, r.data[k])
	}
	return st
}

// replayWAL reads f from the start, applies every intact record to r,
// truncates any torn tail, and leaves f positioned for appending. It
// returns the number of records replayed.
func replayWAL(f *os.File, r *replay) (int, error) {
	buf, err := io.ReadAll(f)
	if err != nil {
		return 0, fmt.Errorf("durable: wal read: %w", err)
	}
	records, good := 0, 0
	off := 0
	for {
		rest := buf[off:]
		if len(rest) == 0 {
			good = off
			break
		}
		if len(rest) < walHeaderLen {
			break // torn header
		}
		n := int(binary.LittleEndian.Uint32(rest[0:4]))
		if n > maxRecord || len(rest) < walHeaderLen+n {
			break // torn or corrupt body
		}
		payload := rest[walHeaderLen : walHeaderLen+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			break // torn checksum (partial overwrite)
		}
		if err := applyRecord(r, payload); err != nil {
			return 0, err
		}
		records++
		off += walHeaderLen + n
		good = off
	}
	if good != len(buf) {
		if err := f.Truncate(int64(good)); err != nil {
			return 0, fmt.Errorf("durable: wal truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		return 0, fmt.Errorf("durable: wal seek: %w", err)
	}
	return records, nil
}

// applyRecord replays one decoded payload into the partition state.
func applyRecord(st *replay, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("durable: empty wal record")
	}
	r := recReader{buf: payload[1:]}
	switch payload[0] {
	case opPut:
		key := r.bytes()
		ver := r.uvarint()
		val := r.bytes()
		if r.err != nil {
			break
		}
		v := make([]byte, len(val))
		copy(v, val)
		k := string(key)
		st.data[k] = Entry{Key: k, Ver: ver, Val: v}
		st.MaxVer = max(st.MaxVer, ver)
	case opMaxVer:
		if ver := r.uvarint(); r.err == nil {
			st.MaxVer = max(st.MaxVer, ver)
		}
	case opDrop, opReset:
		st.data = make(map[string]Entry)
		st.Resident = payload[0] == opReset
		st.Sessions, st.Done = nil, nil
	case opResident:
		st.Resident = true
	case opCursor:
		s := Session{ID: r.uvarint()}
		s.Next = uint32(r.uvarint())
		s.Total = uint32(r.uvarint())
		s.MarkResident = r.byte() == 1
		if r.err == nil {
			st.Sessions = UpsertSession(st.Sessions, s)
		}
	case opDone:
		if sid := r.uvarint(); r.err == nil {
			st.Sessions, st.Done = RetireSession(st.Sessions, st.Done, sid)
		}
	default:
		return fmt.Errorf("durable: unknown wal op %d", payload[0])
	}
	if r.err != nil {
		return fmt.Errorf("durable: malformed wal record op %d: %w", payload[0], r.err)
	}
	return nil
}

// recReader decodes a record payload with a sticky error — a crc-clean
// record with malformed fields is corruption, not a torn tail, and
// recovery fails loudly on it.
type recReader struct {
	buf []byte
	err error
}

func (r *recReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("truncated uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *recReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.err = fmt.Errorf("length %d exceeds remaining %d bytes", n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *recReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.err = fmt.Errorf("missing byte field")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}
