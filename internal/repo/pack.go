package repo

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
)

// Pack files serialize one publication point to disk as a single flat file.
// Nothing in production reads or writes them yet: the format is kept for a
// relying party's restart state (ROADMAP item 5), which will write the
// points it last validated and read them back on start.
//
// Format ("RPP1"):
//
//	magic   4 bytes  "RPP1"
//	count   uvarint  number of entries
//	entry*  uvarint name length, name bytes,
//	        uvarint content length, content bytes
//
// Entries are written in sorted name order, so packing the same files twice
// yields byte-identical output.

const packMagic = "RPP1"

// maxPackEntrySize bounds a single object read back from a pack file,
// mirroring the wire protocol's MaxObjectSize defense.
const maxPackEntrySize = MaxObjectSize

// WritePackFile serializes files to path in pack format. The write goes
// through a temporary file and rename so readers never observe a torn pack.
func WritePackFile(path string, files map[string][]byte) error {
	names := make([]string, 0, len(files))
	for name := range files {
		if !validName(name) {
			return fmt.Errorf("repo: pack: invalid object name %q", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	var scratch [binary.MaxVarintLen64]byte
	size := len(packMagic) + binary.PutUvarint(scratch[:], uint64(len(names)))
	for _, name := range names {
		size += binary.PutUvarint(scratch[:], uint64(len(name))) + len(name)
		size += binary.PutUvarint(scratch[:], uint64(len(files[name]))) + len(files[name])
	}

	buf := make([]byte, 0, size)
	buf = append(buf, packMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		buf = binary.AppendUvarint(buf, uint64(len(files[name])))
		buf = append(buf, files[name]...)
	}

	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("repo: pack: writing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("repo: pack: renaming into place: %w", err)
	}
	return nil
}

// ReadPackFile deserializes a pack file, whose bytes may come from a
// hostile disk image. The returned map's values are
// zero-copy subslices of one backing buffer; callers must treat them as
// read-only.
func ReadPackFile(path string) (map[string][]byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("repo: pack: %w", err)
	}
	return parsePack(buf)
}

func parsePack(buf []byte) (map[string][]byte, error) {
	if len(buf) < len(packMagic) || string(buf[:len(packMagic)]) != packMagic {
		return nil, fmt.Errorf("repo: pack: bad magic")
	}
	rest := buf[len(packMagic):]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > MaxListEntries {
		return nil, fmt.Errorf("repo: pack: bad entry count")
	}
	rest = rest[n:]
	// The count is a claim, not yet entries: a lying count must not size
	// the map.
	files := make(map[string][]byte, min(count, 1024))
	for i := uint64(0); i < count; i++ {
		nameLen, n := binary.Uvarint(rest)
		if n <= 0 || nameLen > 512 || uint64(len(rest)-n) < nameLen {
			return nil, fmt.Errorf("repo: pack: truncated name in entry %d", i)
		}
		name := string(rest[n : n+int(nameLen)])
		rest = rest[n+int(nameLen):]
		if !validName(name) {
			return nil, fmt.Errorf("repo: pack: invalid name %q in entry %d", name, i)
		}
		contentLen, n := binary.Uvarint(rest)
		if n <= 0 || contentLen > maxPackEntrySize || uint64(len(rest)-n) < contentLen {
			return nil, fmt.Errorf("repo: pack: truncated content for %q", name)
		}
		files[name] = rest[n : n+int(contentLen) : n+int(contentLen)]
		rest = rest[n+int(contentLen):]
	}
	return files, nil
}
