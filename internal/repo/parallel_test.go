package repo

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestFetchAllConcurrencyEquivalence checks that sharded concurrent fetches
// return exactly what a single pipelined connection returns, for shard
// counts below, at, and above the object count.
func TestFetchAllConcurrencyEquivalence(t *testing.T) {
	files := map[string][]byte{}
	for i := 0; i < 23; i++ {
		files[fmt.Sprintf("obj-%02d.roa", i)] = []byte(strings.Repeat("x", i+1))
	}
	uri, _, _ := startTestServer(t, files)
	ctx := context.Background()

	base := &Client{Timeout: 5 * time.Second}
	want, err := base.FetchAll(ctx, uri)
	if err != nil {
		t.Fatal(err)
	}
	for _, conc := range []int{2, 4, 23, 64} {
		c := &Client{Timeout: 5 * time.Second, Concurrency: conc}
		got, err := c.FetchAll(ctx, uri)
		if err != nil {
			t.Fatalf("concurrency=%d: %v", conc, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("concurrency=%d returned different contents", conc)
		}
	}
}

// phantomServer speaks just enough rsynclite to advertise objects in LIST
// that then fail on GET — the disappeared-between-LIST-and-GET race that the
// real server cannot be made to exhibit deterministically.
func phantomServer(t *testing.T, files map[string][]byte, phantoms []string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	isPhantom := map[string]bool{}
	for _, name := range phantoms {
		isPhantom[name] = true
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					fields := strings.Fields(line)
					switch {
					case len(fields) == 2 && fields[0] == "LIST":
						names := make([]string, 0, len(files))
						for name := range files {
							names = append(names, name)
						}
						sort.Strings(names)
						fmt.Fprintf(conn, "OK %d\n", len(names))
						for _, name := range names {
							conn.Write(appendListEntry(nil, name, ObjectInfo{Size: len(files[name]), Hash: sha256.Sum256(files[name])}))
						}
					case len(fields) == 3 && fields[0] == "GET":
						content, ok := files[fields[2]]
						if !ok || isPhantom[fields[2]] {
							fmt.Fprintf(conn, "ERR no such object %q\n", fields[2])
							continue
						}
						fmt.Fprintf(conn, "OK %d\n", len(content))
						conn.Write(content)
					default:
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestFetchAllConcurrentPartialFailure checks that objects failing on GET
// yield the same deterministic error and partial result regardless of shard
// count.
func TestFetchAllConcurrentPartialFailure(t *testing.T) {
	files := map[string][]byte{}
	for i := 0; i < 8; i++ {
		files[fmt.Sprintf("obj-%d.roa", i)] = []byte("content")
	}
	addr := phantomServer(t, files, []string{"obj-3.roa", "obj-5.roa"})
	uri := URI{Host: addr, Module: "m"}
	ctx := context.Background()

	run := func(conc int) (map[string][]byte, error) {
		c := &Client{Timeout: 5 * time.Second, Concurrency: conc}
		return c.FetchAll(ctx, uri)
	}
	want, wantErr := run(1)
	if wantErr == nil {
		t.Fatal("phantom objects should surface an error")
	}
	if !strings.Contains(wantErr.Error(), "obj-3.roa") {
		t.Fatalf("error should name the smallest failing object, got %v", wantErr)
	}
	if len(want) != 6 {
		t.Fatalf("partial result has %d objects, want 6", len(want))
	}
	for _, conc := range []int{2, 4, 8} {
		got, err := run(conc)
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("concurrency=%d error = %v, want %v", conc, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("concurrency=%d partial result differs", conc)
		}
	}
}

// TestFetchAllEmptyModule covers the zero-object path at high concurrency.
func TestFetchAllEmptyModule(t *testing.T) {
	uri, _, _ := startTestServer(t, nil)
	c := &Client{Timeout: 5 * time.Second, Concurrency: 8}
	got, err := c.FetchAll(context.Background(), uri)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %d objects from empty module", len(got))
	}
}

// TestServerDropsIdleConnection checks the per-request read deadline: a
// connection that goes silent is closed after ReadTimeout.
func TestServerDropsIdleConnection(t *testing.T) {
	store := NewStore()
	store.Put("a.cer", []byte("bytes"))
	srv := NewServer()
	srv.ReadTimeout = 100 * time.Millisecond
	srv.AddModule("m", store, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing; the server must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept an idle connection past its read timeout")
	}
}

// TestServerReadTimeoutReArmsPerRequest checks that the deadline applies per
// request, not per connection: a client issuing requests at a pace slower
// than the total-connection budget but faster than the per-request timeout
// is never cut off.
func TestServerReadTimeoutReArmsPerRequest(t *testing.T) {
	store := NewStore()
	store.Put("a.cer", []byte("bytes"))
	srv := NewServer()
	srv.ReadTimeout = 300 * time.Millisecond
	srv.AddModule("m", store, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	// Six requests, 150ms apart: 900ms of connection lifetime, every gap
	// inside the 300ms per-request deadline. An absolute connection
	// deadline would kill this after the second request.
	for i := 0; i < 6; i++ {
		time.Sleep(150 * time.Millisecond)
		if _, err := fmt.Fprintf(conn, "LIST m\n"); err != nil {
			t.Fatalf("request %d write: %v", i, err)
		}
		listing, err := readList(r)
		if err != nil || len(listing) != 1 {
			t.Fatalf("request %d: listing %v, err %v", i, listing, err)
		}
	}
}
