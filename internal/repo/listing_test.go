package repo

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"net"
	"runtime"
	"strings"
	"testing"
)

// entryLine renders the listing line a well-behaved server writes for name.
func entryLine(name string, content []byte) string {
	return string(appendListEntry(nil, name, ObjectInfo{Size: len(content), Hash: sha256.Sum256(content)}))
}

func readListString(s string) (map[string]ObjectInfo, error) {
	return readList(bufio.NewReader(strings.NewReader(s)))
}

// TestReadListRejectsAmbiguousListings: with digests in the listing, every
// line is a claim the client will hold the repository to, so a line that can
// be read two ways is malformed — permanently, the server did answer — never
// repaired or last-wins.
func TestReadListRejectsAmbiguousListings(t *testing.T) {
	good := entryLine("a.roa", []byte("a"))
	digest := strings.Fields(good)[2]
	okListing, err := readListString("OK 2\n" + good + entryLine("b.roa", []byte("bb")))
	if err != nil || len(okListing) != 2 || okListing["b.roa"] != (ObjectInfo{Size: 2, Hash: sha256.Sum256([]byte("bb"))}) {
		t.Fatalf("well-formed listing: %v, %v", okListing, err)
	}

	for _, tc := range []struct{ name, reply string }{
		{"duplicate name", "OK 2\n" + good + good},
		{"duplicate name, other digest", "OK 2\n" + good + entryLine("a.roa", []byte("A"))},
		{"slash in name", "OK 1\n" + entryLine("a/b.roa", nil)},
		{"backslash in name", "OK 1\n" + entryLine(`a\b.roa`, nil)},
		{"dot-dot name", "OK 1\n" + entryLine("..", nil)},
		{"NUL in name", "OK 1\n" + entryLine("a\x00.roa", nil)},
		{"over-long name", "OK 1\n" + entryLine(strings.Repeat("n", 513), nil)},
		{"empty name", "OK 1\n 1 " + digest + "\n"},
		{"63-digit digest", "OK 1\na.roa 1 " + digest[:63] + "\n"},
		{"65-digit digest", "OK 1\na.roa 1 " + digest + "0\n"},
		{"upper-case digest", "OK 1\na.roa 1 " + strings.ToUpper(digest) + "\n"},
		{"non-hex digest", "OK 1\na.roa 1 " + digest[:63] + "g\n"},
		{"size over MaxObjectSize", fmt.Sprintf("OK 1\na.roa %d %s\n", MaxObjectSize+1, digest)},
		{"size overflowing int", "OK 1\na.roa 99999999999999999999 " + digest + "\n"},
		{"negative size", "OK 1\na.roa -1 " + digest + "\n"},
		{"signed size", "OK 1\na.roa +1 " + digest + "\n"},
		{"empty size", "OK 1\na.roa  " + digest + "\n"},
		{"two fields (the pre-digest grammar)", "OK 1\na.roa 1\n"},
		{"four fields", "OK 1\na.roa 1 " + digest + " x\n"},
		{"tab separated", "OK 1\na.roa\t1\t" + digest + "\n"},
		{"trailing CR", "OK 1\na.roa 1 " + digest + "\r\n"},
		{"count over MaxListEntries", fmt.Sprintf("OK %d\n", MaxListEntries+1)},
	} {
		listing, err := readListString(tc.reply)
		if err == nil || listing != nil {
			t.Errorf("%s: accepted as %v", tc.name, listing)
		} else if Retryable(err) {
			t.Errorf("%s: %v is retryable, want permanent", tc.name, err)
		}
	}

	// The count in "OK <n>" is the number of entries read: fewer is a torn
	// reply (a transport failure, retryable), and a surplus line is not part
	// of this reply.
	if listing, err := readListString("OK 2\n" + good); err == nil || !Retryable(err) {
		t.Errorf("entries short of the count: %v, %v; want a transport error", listing, err)
	}
	r := bufio.NewReader(strings.NewReader("OK 1\n" + good + "OK 0\n"))
	if listing, err := readList(r); err != nil || len(listing) != 1 {
		t.Errorf("first of two replies: %v, %v", listing, err)
	}
	if listing, err := readList(r); err != nil || len(listing) != 0 {
		t.Errorf("second of two replies: %v, %v", listing, err)
	}
}

// TestListingTokenPromiseUnderPuts: a fault-free LIST reply always carries
// a token, and two replies under one token list the same objects, however
// the authority's publications interleave with the listing.
func TestListingTokenPromiseUnderPuts(t *testing.T) {
	store := NewStore()
	for i := 0; i < 20; i++ {
		store.Put(fmt.Sprintf("obj-%02d.roa", i), []byte("0"))
	}
	uri, stop, err := Serve("m", store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// Every tenth LIST asks for one republish: twenty Puts, one per object,
	// that race the LISTs after it, while the LISTs between republishes
	// share a token.
	more := make(chan struct{}, 1)
	done := make(chan struct{})
	published := make(chan struct{})
	go func() {
		defer close(published)
		for round := 1; ; round++ {
			select {
			case <-done:
				return
			case <-more:
			}
			for i := 0; i < 20; i++ {
				store.Put(fmt.Sprintf("obj-%02d.roa", i), []byte(fmt.Sprint(round)))
			}
		}
	}()
	defer func() { close(done); <-published }()

	conn, err := net.Dial("tcp", uri.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	seen := make(map[string]map[string]ObjectInfo)
	repeats := 0
	for i := 0; i < 2000; i++ {
		if i%10 == 0 {
			select {
			case more <- struct{}{}:
			default:
			}
		}
		if _, err := w.WriteString("LIST m\n"); err != nil || w.Flush() != nil {
			t.Fatalf("LIST %d: write failed", i)
		}
		l, err := readListing(r)
		if err != nil {
			t.Fatalf("LIST %d: %v", i, err)
		}
		if l.token == "" {
			t.Fatalf("LIST %d: a fault-free reply carries no token", i)
		}
		if prev, ok := seen[l.token]; ok {
			repeats++
			if !maps.Equal(prev, l.objects) {
				t.Fatalf("LIST %d: token %s listed two different point states", i, l.token)
			}
		}
		seen[l.token] = l.objects
	}
	if repeats == 0 {
		t.Error("no two replies shared a token: the promise was never compared")
	}
}

var nameSink string

// TestListingKeyDoesNotPinItsLine: listing keys flow into SyncResult.Files
// and from there into the relying party's retained per-point state. A key
// that is a substring of its whole line would keep ≈ 80 bytes of digest text
// alive per object for as long as the snapshot lives; parsing must allocate
// the name and nothing else.
func TestListingKeyDoesNotPinItsLine(t *testing.T) {
	const name = "obj00001.roa"
	line := []byte(strings.TrimSuffix(entryLine(name, []byte("content")), "\n"))
	if n := testing.AllocsPerRun(100, func() { nameSink, _, _ = parseListEntry(line) }); n != 1 {
		t.Errorf("parseListEntry allocates %v times per entry, want 1 (the name)", n)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		nameSink, _, _ = parseListEntry(line)
	}
	runtime.ReadMemStats(&after)
	// One size class of slack: a 12-byte name occupies 16 bytes; its 80-byte
	// line would occupy 80.
	if perEntry := (after.TotalAlloc - before.TotalAlloc) / runs; perEntry > uint64(len(name))+8 {
		t.Errorf("parseListEntry allocates %d bytes for a %d-byte name: the key pins more than the name", perEntry, len(name))
	}
}

// FuzzReadList: whatever a repository sends in place of a LIST or GET reply,
// the parsers return an error or a result inside the protocol's bounds —
// every listing key a name validName accepts, no more entries than lines
// received, no size past MaxObjectSize — and never panic.
func FuzzReadList(f *testing.F) {
	good := entryLine("a.roa", []byte("a"))
	f.Add([]byte("OK 1\n" + good))
	f.Add([]byte("OK 2\n" + good + good))
	f.Add([]byte("OK 1 n.1.7\n" + good))
	f.Add([]byte("OK 0\n"))
	f.Add([]byte("OK 3\nabc"))
	f.Add([]byte("ERR no such module \"m\"\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		listing, err := readList(bufio.NewReader(bytes.NewReader(data)))
		if err == nil {
			if len(listing) > MaxListEntries || len(listing) > bytes.Count(data, []byte{'\n'}) {
				t.Fatalf("%d entries from %d lines", len(listing), bytes.Count(data, []byte{'\n'}))
			}
			for name, info := range listing {
				if !validName(name) || info.Size < 0 || info.Size > MaxObjectSize {
					t.Fatalf("accepted entry %q %+v", name, info)
				}
			}
		} else if listing != nil {
			t.Fatalf("error %v with a listing", err)
		}
		body, err := readBody(bufio.NewReader(bytes.NewReader(data)))
		if err == nil && len(body) > len(data) {
			t.Fatalf("%d-byte body from %d bytes of input", len(body), len(data))
		}
	})
}
