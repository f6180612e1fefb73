package repo

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	s.Put("a.cer", []byte("alpha"))
	s.Put("b.roa", []byte("beta"))
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	got, ok := s.Get("a.cer")
	if !ok || string(got) != "alpha" {
		t.Error("get failed")
	}
	// Mutating the returned slice must not affect the store.
	got[0] = 'X'
	again, _ := s.Get("a.cer")
	if string(again) != "alpha" {
		t.Error("store aliased its contents")
	}
	v := s.Version()
	s.Put("a.cer", []byte("alpha2")) // overwrite: an RPKI design decision
	if s.Version() != v+1 {
		t.Error("overwrite should bump version")
	}
	s.Delete("b.roa")
	if _, ok := s.Get("b.roa"); ok {
		t.Error("delete failed")
	}
	s.Delete("never-existed")
	if s.Len() != 1 {
		t.Error("spurious entries")
	}
	names := s.List()
	if len(names) != 1 || names[0] != "a.cer" {
		t.Errorf("list = %v", names)
	}
}

func TestStoreSnapshotAndReplace(t *testing.T) {
	s := NewStore()
	s.Put("x", []byte("1"))
	snap := s.Snapshot()
	s.Put("x", []byte("2"))
	if string(snap["x"]) != "1" {
		t.Error("snapshot must be isolated")
	}
	s.Replace(map[string][]byte{"y": []byte("3")})
	if _, ok := s.Get("x"); ok {
		t.Error("replace must clear old contents")
	}
	if got, _ := s.Get("y"); string(got) != "3" {
		t.Error("replace content wrong")
	}
}

func TestParseURI(t *testing.T) {
	uri, obj, err := ParseURI("rsynclite://127.0.0.1:8873/sprint")
	if err != nil || uri.Host != "127.0.0.1:8873" || uri.Module != "sprint" || obj != "" {
		t.Errorf("got %+v %q %v", uri, obj, err)
	}
	uri, obj, err = ParseURI("rsynclite://h:1/mod/file.roa")
	if err != nil || obj != "file.roa" {
		t.Errorf("got %+v %q %v", uri, obj, err)
	}
	if uri.ObjectURI("x.cer") != "rsynclite://h:1/mod/x.cer" {
		t.Errorf("ObjectURI = %q", uri.ObjectURI("x.cer"))
	}
	for _, bad := range []string{"http://x/y", "rsynclite://", "rsynclite://hostonly", "rsynclite:///mod"} {
		if _, _, err := ParseURI(bad); err == nil {
			t.Errorf("ParseURI(%q) should fail", bad)
		}
	}
}

func TestValidName(t *testing.T) {
	for _, good := range []string{"a.cer", "roa-17054.roa", "MFT_1.mft"} {
		if !validName(good) {
			t.Errorf("%q should be valid", good)
		}
	}
	for _, bad := range []string{"", ".", "..", "a/b", "a\\b", "a b", "x\n", strings.Repeat("a", 600)} {
		if validName(bad) {
			t.Errorf("%q should be invalid", bad)
		}
	}
}

func startTestServer(t *testing.T, files map[string][]byte) (URI, *Store, *Faults) {
	t.Helper()
	store := NewStore()
	for name, content := range files {
		store.Put(name, content)
	}
	faults := NewFaults()
	uri, stop, err := Serve(nil, "test", store, faults)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return uri, store, faults
}

func TestClientListAndGet(t *testing.T) {
	uri, _, _ := startTestServer(t, map[string][]byte{
		"a.cer": []byte("certificate bytes"),
		"b.roa": []byte("roa bytes"),
	})
	c := &Client{Timeout: 5 * time.Second}
	ctx := context.Background()

	names, err := c.List(ctx, uri)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names["a.cer"].Size != len("certificate bytes") {
		t.Errorf("list = %v", names)
	}
	content, err := c.Get(ctx, uri, "a.cer")
	if err != nil {
		t.Fatal(err)
	}
	if string(content) != "certificate bytes" {
		t.Errorf("got %q", content)
	}
	if _, err := c.Get(ctx, uri, "missing"); err == nil {
		t.Error("missing object should error")
	}
	if _, err := c.List(ctx, URI{Host: uri.Host, Module: "nope"}); err == nil {
		t.Error("missing module should error")
	}
}

func TestClientFetchAll(t *testing.T) {
	files := map[string][]byte{
		"a.cer": []byte("aaa"),
		"b.roa": []byte("bbb"),
		"c.mft": []byte("ccc"),
	}
	uri, _, _ := startTestServer(t, files)
	c := &Client{Timeout: 5 * time.Second}
	got, err := c.FetchAll(context.Background(), uri)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d objects", len(got))
	}
	for name, want := range files {
		if !bytes.Equal(got[name], want) {
			t.Errorf("%s mismatch", name)
		}
	}
}

func TestFaultDrop(t *testing.T) {
	uri, _, faults := startTestServer(t, map[string][]byte{
		"keep.cer": []byte("k"),
		"drop.roa": []byte("d"),
	})
	faults.Drop("drop.roa")
	c := &Client{Timeout: 5 * time.Second}
	ctx := context.Background()
	names, err := c.List(ctx, uri)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := names["drop.roa"]; ok {
		t.Error("dropped object should not be listed")
	}
	if _, err := c.Get(ctx, uri, "drop.roa"); err == nil {
		t.Error("dropped object should not be fetchable")
	}
	faults.Restore("drop.roa")
	if _, err := c.Get(ctx, uri, "drop.roa"); err != nil {
		t.Errorf("restored object should be fetchable: %v", err)
	}
}

func TestFaultCorrupt(t *testing.T) {
	uri, _, faults := startTestServer(t, map[string][]byte{
		"obj.roa": []byte("this content will be corrupted in flight by the fault plan"),
	})
	faults.Corrupt("obj.roa")
	c := &Client{Timeout: 5 * time.Second}
	got, err := c.Get(context.Background(), uri, "obj.roa")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, []byte("this content will be corrupted in flight by the fault plan")) {
		t.Error("content should have been corrupted")
	}
	faults.Restore("")
	got, err = c.Get(context.Background(), uri, "obj.roa")
	if err != nil || !bytes.Equal(got, []byte("this content will be corrupted in flight by the fault plan")) {
		t.Error("restore should heal corruption")
	}
}

func TestFaultRefuse(t *testing.T) {
	uri, _, faults := startTestServer(t, map[string][]byte{"a": []byte("x")})
	faults.Refuse(true)
	c := &Client{Timeout: 2 * time.Second}
	if _, err := c.List(context.Background(), uri); err == nil {
		t.Error("refused module should fail")
	}
	faults.Refuse(false)
	if _, err := c.List(context.Background(), uri); err != nil {
		t.Errorf("restored module should work: %v", err)
	}
}

func TestFetchAllWithPartialFailure(t *testing.T) {
	uri, _, faults := startTestServer(t, map[string][]byte{
		"good.cer": []byte("g"),
		"bad.roa":  []byte("b"),
	})
	// Drop from GET only by dropping after LIST: simulate by dropping the
	// object between LIST and GET via a store delete race — easier: drop
	// the name and assert FetchAll surfaces a partial result.
	c := &Client{Timeout: 5 * time.Second}
	all, err := c.FetchAll(context.Background(), uri)
	if err != nil || len(all) != 2 {
		t.Fatalf("clean fetch failed: %v", err)
	}
	faults.Drop("bad.roa")
	all, err = c.FetchAll(context.Background(), uri)
	if err != nil {
		t.Fatalf("dropped object should just be absent from LIST: %v", err)
	}
	if _, ok := all["bad.roa"]; ok {
		t.Error("dropped object should be absent")
	}
	if _, ok := all["good.cer"]; !ok {
		t.Error("good object should be present")
	}
}

func TestServerConcurrentClients(t *testing.T) {
	uri, _, _ := startTestServer(t, map[string][]byte{"o": bytes.Repeat([]byte("x"), 10000)})
	c := &Client{Timeout: 5 * time.Second}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := c.FetchAll(context.Background(), uri)
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestMultiModuleServer(t *testing.T) {
	srv := NewServer()
	s1, s2 := NewStore(), NewStore()
	s1.Put("one", []byte("1"))
	s2.Put("two", []byte("2"))
	srv.AddModule("sprint", s1, nil)
	srv.AddModule("continental", s2, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Timeout: 5 * time.Second}
	ctx := context.Background()
	got, err := c.Get(ctx, URI{Host: addr, Module: "sprint"}, "one")
	if err != nil || string(got) != "1" {
		t.Errorf("sprint module: %q %v", got, err)
	}
	got, err = c.Get(ctx, URI{Host: addr, Module: "continental"}, "two")
	if err != nil || string(got) != "2" {
		t.Errorf("continental module: %q %v", got, err)
	}
}

// TestClientListDigests: the listing carries each object's size and SHA-256,
// and a Corrupted object is listed with the digest of the bytes GET serves —
// faults are not detectable from the listing alone.
func TestClientListDigests(t *testing.T) {
	content := []byte("list me please")
	uri, _, faults := startTestServer(t, map[string][]byte{"obj.roa": content})
	c := &Client{Timeout: 5 * time.Second}
	ctx := context.Background()

	listing, err := c.List(ctx, uri)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := listing["obj.roa"]
	if !ok || len(listing) != 1 || info.Size != len(content) || info.Hash != sha256.Sum256(content) {
		t.Errorf("listing = %+v", listing)
	}
	faults.Corrupt("obj.roa")
	listing, err = c.List(ctx, uri)
	if err != nil {
		t.Fatal(err)
	}
	info2 := listing["obj.roa"]
	if info2.Hash == info.Hash {
		t.Error("a corrupted object's listing should expose a different digest")
	}
	served, _ := c.Get(ctx, uri, "obj.roa")
	if info2.Size != len(served) || info2.Hash != sha256.Sum256(served) {
		t.Error("the listed digest must match what GET serves")
	}
}

func TestSyncIncremental(t *testing.T) {
	files := map[string][]byte{
		"a.cer": []byte("certificate a"),
		"b.roa": []byte("roa b"),
		"c.mft": []byte("manifest c"),
	}
	uri, store, _ := startTestServer(t, files)
	c := &Client{Timeout: 5 * time.Second}
	ctx := context.Background()

	// Cold sync: everything downloaded.
	res, err := c.SyncIncremental(ctx, uri, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Downloaded != 3 || res.Reused != 0 {
		t.Fatalf("cold sync: %+v", res)
	}

	// No changes: everything reused.
	res2, err := c.SyncIncremental(ctx, uri, res.Files)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Downloaded != 0 || res2.Reused != 3 {
		t.Fatalf("warm sync: downloaded=%d reused=%d", res2.Downloaded, res2.Reused)
	}
	if res.Unchanged || !res2.Unchanged {
		t.Errorf("Unchanged: cold=%v warm=%v, want false/true", res.Unchanged, res2.Unchanged)
	}

	// One overwrite (same size!), one delete, one add.
	store.Put("b.roa", []byte("ROA B")) // same length, different bytes
	store.Delete("c.mft")
	store.Put("d.crl", []byte("crl d"))
	res3, err := c.SyncIncremental(ctx, uri, res2.Files)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Downloaded != 2 { // b.roa (hash changed) + d.crl (new)
		t.Errorf("delta sync downloaded %d, want 2", res3.Downloaded)
	}
	if res3.Reused != 1 || res3.Removed != 1 {
		t.Errorf("delta sync: %+v", res3)
	}
	if res3.Unchanged {
		t.Error("a delta sync must not report Unchanged")
	}
	if string(res3.Files["b.roa"]) != "ROA B" {
		t.Error("changed content not refreshed")
	}
	if _, ok := res3.Files["c.mft"]; ok {
		t.Error("deleted object should be gone")
	}
}

func TestSyncIncrementalListingMismatch(t *testing.T) {
	// A body that does not hash to the digest its listing promised kills the
	// incremental sync, but plain GETs still work: a caller can always fall
	// back to a clean full fetch.
	uri, store, faults := startTestServer(t, map[string][]byte{
		"x.roa": []byte("content of x"),
		"y.roa": []byte("content of y"),
	})
	hub := obs.NewHub(time.Now)
	c := &Client{Timeout: time.Second, Retry: fastRetry(1)}
	c.Instrument(hub)
	ctx := context.Background()
	res, err := c.SyncIncremental(ctx, uri, nil)
	if err != nil {
		t.Fatal(err)
	}
	store.Put("x.roa", []byte("CONTENT OF X"))
	faults.CorruptRate("x.roa", 1, 2) // the next GET is damaged in flight, the one after is clean
	got, err := c.SyncIncremental(ctx, uri, res.Files)
	if !errors.Is(err, ErrListingMismatch) || got != nil {
		t.Fatalf("a body contradicting its listing must fail the sync, got %+v, %v", got, err)
	}
	if Retryable(err) || c.Stats().Retries != 0 {
		t.Errorf("the server answered: nothing to retry (err %v, %d retries)", err, c.Stats().Retries)
	}
	var sb strings.Builder
	if err := hub.Registry().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rpki_repo_listing_mismatch_total 1\n") {
		t.Error("/metrics lacks rpki_repo_listing_mismatch_total 1")
	}
	files, err := c.FetchAll(ctx, uri)
	if err != nil {
		t.Fatalf("full fetch must survive a listing mismatch: %v", err)
	}
	if string(files["x.roa"]) != "CONTENT OF X" {
		t.Error("full fetch served wrong bytes")
	}
	// The fault clears: the incremental path recovers.
	faults.Restore("x.roa")
	res2, err := c.SyncIncremental(ctx, uri, res.Files)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reused != 1 || res2.Downloaded != 1 || string(res2.Files["x.roa"]) != "CONTENT OF X" {
		t.Errorf("recovered sync: %+v", res2)
	}
}

func TestSyncIncrementalSeesThroughFaults(t *testing.T) {
	uri, _, faults := startTestServer(t, map[string][]byte{"x.roa": []byte("content of x")})
	c := &Client{Timeout: 5 * time.Second}
	ctx := context.Background()
	res, err := c.SyncIncremental(ctx, uri, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corruption changes the listed digest → incremental sync re-downloads
	// and the relying party sees the corrupted (rejectable) bytes.
	faults.Corrupt("x.roa")
	res2, err := c.SyncIncremental(ctx, uri, res.Files)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Downloaded != 1 {
		t.Errorf("corruption should force a re-download, got %+v", res2)
	}
	if string(res2.Files["x.roa"]) == "content of x" {
		t.Error("corrupted bytes expected")
	}
}
