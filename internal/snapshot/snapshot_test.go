package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"elsi/internal/faults"
)

func TestWriteReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, Name(42))
	payload := []byte("the learned index state")
	if err := Write(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q, want %q", got, payload)
	}
}

func TestEmptyPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), Name(1))
	if err := Write(path, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("payload %q, want empty", got)
	}
}

func TestTruncatedFileIsFormatError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, Name(1))
	if err := Write(path, []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, headerSize, len(data) - 1} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Read(path)
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("truncate to %d: want *FormatError, got %v", cut, err)
		}
	}
}

func TestBitFlipIsFormatError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, Name(1))
	if err := Write(path, []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit and one trailer bit; both must be caught.
	for _, off := range []int{headerSize + 5, len(data) - 2} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Read(path)
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("flip at %d: want *FormatError, got %v", off, err)
		}
	}
}

func TestForeignVersionIsVersionError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, Name(1))
	if err := Write(path, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Bump the version field and fix the checksum so only the version
	// check can object.
	binary.LittleEndian.PutUint16(data[len(magic):], Version+1)
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(body, castagnoli))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Read(path)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VersionError, got %v", err)
	}
	if ve.Got != Version+1 || ve.Want != Version {
		t.Fatalf("version error %+v", ve)
	}
}

func TestBadMagicIsFormatError(t *testing.T) {
	path := filepath.Join(t.TempDir(), Name(1))
	junk := append([]byte("NOTASNAP"), make([]byte, 32)...)
	if err := os.WriteFile(path, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Read(path)
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FormatError, got %v", err)
	}
}

func TestLatestGCAndDirListing(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := Latest(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: %v", err)
	}
	for _, lsn := range []uint64{3, 10, 7} {
		if err := Write(filepath.Join(dir, Name(lsn)), []byte{byte(lsn)}); err != nil {
			t.Fatal(err)
		}
	}
	// A stray temp file (crashed write) must be invisible to Latest.
	if err := os.WriteFile(filepath.Join(dir, Name(99)+tmpSuffix), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	path, lsn, err := Latest(dir)
	if err != nil || lsn != 10 {
		t.Fatalf("Latest: %q %d %v", path, lsn, err)
	}
	if err := GC(dir, 10); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("after GC: %d entries, want only %s", len(ents), Name(10))
	}
	for _, e := range ents {
		if e.Name() != Name(10) {
			t.Fatalf("GC left %s", e.Name())
		}
	}
}

func TestCrashPointWriteLeavesTargetUntouched(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, Name(5))
	if err := Write(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	faults.Enable("snapshot/write", faults.Fault{Mode: faults.ModeError})
	if err := Write(path, []byte("new")); err == nil {
		t.Fatal("write survived injected crash")
	}
	faults.Reset()
	got, err := Read(path)
	if err != nil || string(got) != "old" {
		t.Fatalf("target damaged: %q %v", got, err)
	}
	// The half-written temp file is the expected crash debris; GC
	// sweeps it.
	if _, err := os.Stat(path + tmpSuffix); err != nil {
		t.Fatalf("expected crash debris: %v", err)
	}
	if err := GC(dir, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + tmpSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("GC left temp file: %v", err)
	}
}

func TestCrashPointRenameKeepsPrevious(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	old := filepath.Join(dir, Name(5))
	if err := Write(old, []byte("old")); err != nil {
		t.Fatal(err)
	}
	faults.Enable("snapshot/rename", faults.Fault{Mode: faults.ModeError})
	next := filepath.Join(dir, Name(9))
	if err := Write(next, []byte("new")); err == nil {
		t.Fatal("write survived injected crash")
	}
	faults.Reset()
	// The new snapshot was never installed: Latest still serves the old.
	path, lsn, err := Latest(dir)
	if err != nil || lsn != 5 {
		t.Fatalf("Latest after crashed rename: %q %d %v", path, lsn, err)
	}
	got, err := Read(path)
	if err != nil || string(got) != "old" {
		t.Fatalf("previous snapshot damaged: %q %v", got, err)
	}
}
