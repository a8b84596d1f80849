// Package snapshot persists the trained state of a learned index: the
// store's SoA key/point columns plus the model parameters of whichever
// family built them, wrapped in a versioned, self-checksummed
// container. A snapshot plus the WAL tail after it is a complete
// recovery recipe that performs zero model training — the whole point
// of ELSI's cheap-rebuild premise is that restart cost is IO, not
// retraining.
//
// Container layout (little-endian):
//
//	8 bytes  magic "ELSISNAP"
//	u16      format version (currently 1)
//	u64      payload length
//	payload  (family-specific, see the Enc/Dec primitives)
//	u32      CRC32C over everything above
//
// Files are written to a temp name in the same directory, fsynced,
// atomically renamed into place, and the directory fsynced — a reader
// never observes a half-written snapshot, and a crash at any point
// leaves either the old snapshot or the new one, never neither.
// Snapshot files are named by the last LSN they cover
// ("snap-%016x.snap"); WAL segments at or below that LSN are garbage
// only after the rename is durable.
//
// Damage is classified with typed errors: *FormatError for a
// truncated, misframed, or bit-flipped container, *VersionError for a
// container written by a different format version. Crash points
// "snapshot/write" (truncated temp file) and "snapshot/rename"
// (complete temp file, never installed) simulate kills at the two
// interesting instants.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"elsi/internal/faults"
)

func init() {
	faults.Register("snapshot/write", "snapshot temp-file write: crash leaves a truncated temp file")
	faults.Register("snapshot/rename", "snapshot rename: crash leaves a complete temp file, old snapshot still live")
}

const (
	magic = "ELSISNAP"
	// Version is the current container format version.
	Version    = 1
	headerSize = len(magic) + 2 + 8
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FormatError reports a container that is not a valid snapshot:
// truncated, bad magic, misframed, or checksum mismatch.
type FormatError struct {
	// Path is the offending file.
	Path string
	// Reason says what check failed.
	Reason string
}

// Error implements error.
func (e *FormatError) Error() string {
	return fmt.Sprintf("snapshot: %s: %s", e.Path, e.Reason)
}

// VersionError reports a structurally valid container written by a
// different format version — distinguishable from corruption so
// operators see "upgrade needed", not "disk is bad".
type VersionError struct {
	// Path is the offending file.
	Path string
	// Got and Want are the container's and this build's versions.
	Got, Want uint16
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: %s: format version %d (this build reads %d)", e.Path, e.Got, e.Want)
}

// ErrNoSnapshot is returned by Latest when the directory holds no
// installed snapshot.
var ErrNoSnapshot = errors.New("snapshot: no snapshot found")

// Name returns the snapshot filename covering lsn.
func Name(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, lsn, snapSuffix)
}

func parseName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if len(hexpart) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Write persists payload to path atomically: temp file in the same
// directory, write, fsync, rename, directory fsync. On any error the
// target is untouched (a crashed write can leave a stray temp file,
// which readers ignore and GC removes).
func Write(path string, payload []byte) error {
	buf := make([]byte, 0, headerSize+len(payload)+4)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))

	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := faults.Hit("snapshot/write"); err != nil {
		// Simulate a kill mid-write: half the container reaches the
		// temp file, the rename never happens.
		f.Write(buf[:len(buf)/2])
		f.Close()
		return fmt.Errorf("snapshot: crashed writing %s: %w", tmp, err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := faults.Hit("snapshot/rename"); err != nil {
		// Simulate a kill between fsync and rename: the temp file is
		// complete and durable but never installed; the previous
		// snapshot remains the live one.
		return fmt.Errorf("snapshot: crashed before renaming %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// Read loads and verifies the container at path, returning its
// payload. Damage yields a *FormatError; a foreign format version a
// *VersionError.
func Read(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < headerSize+4 {
		return nil, &FormatError{Path: path, Reason: fmt.Sprintf("truncated: %d bytes", len(data))}
	}
	if string(data[:len(magic)]) != magic {
		return nil, &FormatError{Path: path, Reason: "bad magic"}
	}
	ver := binary.LittleEndian.Uint16(data[len(magic):])
	if ver != Version {
		return nil, &VersionError{Path: path, Got: ver, Want: Version}
	}
	plen := binary.LittleEndian.Uint64(data[len(magic)+2:])
	if plen != uint64(len(data)-headerSize-4) {
		return nil, &FormatError{Path: path, Reason: fmt.Sprintf("payload length %d does not match file size %d", plen, len(data))}
	}
	body := data[:len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return nil, &FormatError{Path: path, Reason: "checksum mismatch"}
	}
	payload := make([]byte, plen)
	copy(payload, data[headerSize:len(data)-4])
	return payload, nil
}

// Latest returns the path and covered LSN of the newest installed
// snapshot in dir (highest LSN in the filename). Temp files are
// ignored. ErrNoSnapshot when none exist.
func Latest(dir string) (string, uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	best := uint64(0)
	found := false
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if lsn, ok := parseName(e.Name()); ok && (!found || lsn > best) {
			best = lsn
			found = true
		}
	}
	if !found {
		return "", 0, ErrNoSnapshot
	}
	return filepath.Join(dir, Name(best)), best, nil
}

// GC removes installed snapshots older than keepLSN and any stray
// temp files. Called only after the snapshot covering keepLSN is
// durable.
func GC(dir string, keepLSN uint64) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
			continue
		}
		if lsn, ok := parseName(name); ok && lsn < keepLSN {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
