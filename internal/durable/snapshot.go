package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Snapshot file format (one file per partition, installed only by an
// atomic rename of a fully-written temp file):
//
//	magic "RFHS" + format byte 1
//	uvarint maxVer
//	byte resident
//	uvarint entry count, then per entry: key, ver, val (length-prefixed)
//	uvarint session count, then per session: sid, next, total, mark
//	uvarint done count, then per id: sid
//	crc32(everything above) u32 LE
//
// Entries are written in ascending key order so the file bytes are a
// deterministic function of the state.

var snapMagic = []byte{'R', 'F', 'H', 'S', 1}

// writeSnapshot serialises st (entries already in ascending key order)
// to path via a temp file + rename.
func writeSnapshot(path string, st PartitionState, sync Syncer) error {
	buf := append([]byte(nil), snapMagic...)
	buf = binary.AppendUvarint(buf, st.MaxVer)
	buf = appendBool(buf, st.Resident)
	buf = binary.AppendUvarint(buf, uint64(len(st.Entries)))
	for _, e := range st.Entries {
		buf = binary.AppendUvarint(buf, uint64(len(e.Key)))
		buf = append(buf, e.Key...)
		buf = binary.AppendUvarint(buf, e.Ver)
		buf = binary.AppendUvarint(buf, uint64(len(e.Val)))
		buf = append(buf, e.Val...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.Sessions)))
	for _, s := range st.Sessions {
		buf = binary.AppendUvarint(buf, s.ID)
		buf = binary.AppendUvarint(buf, uint64(s.Next))
		buf = binary.AppendUvarint(buf, uint64(s.Total))
		buf = appendBool(buf, s.MarkResident)
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.Done)))
	for _, sid := range st.Done {
		buf = binary.AppendUvarint(buf, sid)
	}
	sum := make([]byte, 4)
	binary.LittleEndian.PutUint32(sum, crc32.ChecksumIEEE(buf))
	buf = append(buf, sum...)

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		return err
	}
	if err := sync.Sync(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// loadSnapshot restores r from path; a missing file means "no
// snapshot yet" and leaves r at its birth state. A present-but-corrupt
// snapshot is real corruption (installs are atomic), so it fails
// loudly rather than silently serving partial state.
func loadSnapshot(path string, st *replay) error {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("durable: snapshot read: %w", err)
	}
	if len(buf) < len(snapMagic)+4 {
		return fmt.Errorf("durable: snapshot %s truncated (%d bytes)", path, len(buf))
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return fmt.Errorf("durable: snapshot %s checksum mismatch", path)
	}
	for i, b := range snapMagic {
		if body[i] != b {
			return fmt.Errorf("durable: snapshot %s has bad magic", path)
		}
	}
	r := recReader{buf: body[len(snapMagic):]}
	st.MaxVer = r.uvarint()
	st.Resident = r.byte() == 1
	n := int(r.uvarint())
	for i := 0; i < n && r.err == nil; i++ {
		key := string(r.bytes())
		ver := r.uvarint()
		val := r.bytes()
		if r.err != nil {
			break
		}
		v := make([]byte, len(val))
		copy(v, val)
		st.data[key] = Entry{Key: key, Ver: ver, Val: v}
	}
	sn := int(r.uvarint())
	for i := 0; i < sn && r.err == nil; i++ {
		s := Session{ID: r.uvarint()}
		s.Next = uint32(r.uvarint())
		s.Total = uint32(r.uvarint())
		s.MarkResident = r.byte() == 1
		if r.err == nil {
			st.Sessions = append(st.Sessions, s)
		}
	}
	dn := int(r.uvarint())
	for i := 0; i < dn && r.err == nil; i++ {
		st.Done = append(st.Done, r.uvarint())
	}
	if r.err != nil {
		return fmt.Errorf("durable: snapshot %s malformed: %w", path, r.err)
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("durable: snapshot %s has %d trailing bytes", path, len(r.buf))
	}
	return nil
}
