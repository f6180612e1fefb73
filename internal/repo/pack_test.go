package repo

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"runtime"
	"testing"
)

// packOf encodes a pack claiming count entries, followed by fields (names
// and contents, alternating) in the order given. It makes none of
// WritePackFile's checks, so tests can build malformed packs.
func packOf(count uint64, fields ...string) []byte {
	buf := binary.AppendUvarint([]byte(packMagic), count)
	for _, e := range fields {
		buf = binary.AppendUvarint(buf, uint64(len(e)))
		buf = append(buf, e...)
	}
	return buf
}

// TestParsePackLyingCount: the entry count is read before any entry, so a
// 7-byte file claiming 2^20 entries must fail at the first missing entry
// without first sizing a map for all of them.
func TestParsePackLyingCount(t *testing.T) {
	pack := packOf(MaxListEntries)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	files, err := parsePack(pack)
	runtime.ReadMemStats(&after)
	if err == nil || files != nil {
		t.Fatalf("parsePack(%q) = %v, %v; want an error", pack, files, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a %d-byte pack claiming %d entries allocated %d bytes, want < 1 MiB", len(pack), MaxListEntries, got)
	}
}

// FuzzParsePack: whatever bytes sit on disk in place of a pack file, the
// reader returns an error or entries inside the format's bounds — every
// name one validName accepts, no content past maxPackEntrySize — and what
// it accepts writes back to a pack that reads the same.
func FuzzParsePack(f *testing.F) {
	f.Add(packOf(0))
	f.Add(packOf(2, "a.roa", "content", "b.mft", ""))
	f.Add(packOf(2, "a.roa", "x", "a.roa", "y"))
	f.Add(packOf(1, "../a.roa", "x"))
	f.Add(packOf(3, "a.roa", "x"))
	path := filepath.Join(f.TempDir(), "m.pp")
	f.Fuzz(func(t *testing.T, data []byte) {
		files, err := parsePack(data)
		if err != nil {
			if files != nil {
				t.Fatalf("error %v with %d entries", err, len(files))
			}
			return
		}
		for name, content := range files {
			if !validName(name) || len(content) > maxPackEntrySize {
				t.Fatalf("accepted entry %q with %d bytes", name, len(content))
			}
		}
		if err := WritePackFile(path, files); err != nil {
			t.Fatalf("writing back an accepted pack: %v", err)
		}
		again, err := ReadPackFile(path)
		if err != nil || len(again) != len(files) {
			t.Fatalf("re-read %d of %d entries, err %v", len(again), len(files), err)
		}
		for name, content := range files {
			if got, ok := again[name]; !ok || !bytes.Equal(got, content) {
				t.Fatalf("entry %q re-read as %q, want %q", name, got, content)
			}
		}
	})
}
