package repo

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestPipelinedSyncPropertyUnderMutation is the oracle for the fetch paths:
// after every random batch of Put / overwrite / Delete on the store, an
// incremental sync from the previous result must return exactly the store's
// contents, with Downloaded / Reused / Removed / Unchanged equal to what the
// mutations imply, having sent one LIST and exactly one GET per changed or
// new object — an unchanged point costs one dial, one LIST line and no other
// request line; and a full fetch must agree at Concurrency 1 and 4.
func TestPipelinedSyncPropertyUnderMutation(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			uri, store, _ := startTestServer(t, nil)
			w := &wire{}
			c := &Client{Timeout: 5 * time.Second, Dial: w.dial}
			ctx := context.Background()

			// model is the mutation log applied to an empty module.
			model := map[string][]byte{}
			blob := func() []byte {
				b := make([]byte, 1+rng.Intn(300))
				rng.Read(b)
				return b
			}
			name := func() string { return fmt.Sprintf("o%03d.roa", rng.Intn(200)) }
			existing := func() (string, bool) {
				if len(model) == 0 {
					return "", false
				}
				names := make([]string, 0, len(model))
				for n := range model {
					names = append(names, n)
				}
				sort.Strings(names) // map order must not leak into a seeded run
				return names[rng.Intn(len(names))], true
			}
			mutate := func() {
				switch n, ok := existing(); {
				case rng.Intn(4) == 0 && ok:
					store.Delete(n)
					delete(model, n)
				case rng.Intn(3) == 0 && ok: // same size, new bytes: only the digest can tell
					b := append([]byte(nil), model[n]...)
					b[rng.Intn(len(b))] ^= 0x5A
					store.Put(n, b)
					model[n] = b
				case rng.Intn(3) == 0 && ok: // republished unchanged
					store.Put(n, model[n])
				default: // new object, or an overwrite at (almost surely) another size
					n, b := name(), blob()
					store.Put(n, b)
					model[n] = b
				}
			}

			var prev map[string][]byte
			for round := 0; round < 40; round++ {
				for i := rng.Intn(12); i > 0; i-- {
					mutate()
				}
				if round == 20 { // Replace is a mutation too
					for i := len(model) / 2; i > 0; i-- {
						n, _ := existing()
						delete(model, n)
					}
					store.Replace(model)
				}
				var wantDown, wantReused, wantRemoved int
				for n, b := range model {
					if old, held := prev[n]; held && bytes.Equal(old, b) {
						wantReused++
					} else {
						wantDown++
					}
				}
				for n := range prev {
					if _, still := model[n]; !still {
						wantRemoved++
					}
				}

				w.reset()
				res, err := c.SyncIncremental(ctx, uri, prev)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if snap := store.Snapshot(); !reflect.DeepEqual(res.Files, snap) || !reflect.DeepEqual(snap, model) {
					t.Fatalf("round %d: sync result, store and model disagree (%d, %d, %d objects)",
						round, len(res.Files), len(snap), len(model))
				}
				wantUnchanged := prev != nil && wantDown == 0 && wantRemoved == 0
				if res.Downloaded != wantDown || res.Reused != wantReused || res.Removed != wantRemoved || res.Unchanged != wantUnchanged {
					t.Fatalf("round %d: downloaded %d reused %d removed %d unchanged %v; want %d %d %d %v",
						round, res.Downloaded, res.Reused, res.Removed, res.Unchanged,
						wantDown, wantReused, wantRemoved, wantUnchanged)
				}
				wantWire(t, w, 1, 1<<30, 1, wantDown)

				w.reset()
				again, err := c.SyncIncremental(ctx, uri, res.Files)
				if err != nil || !again.Unchanged || again.Reused != len(model) {
					t.Fatalf("round %d: re-sync of an unchanged point: %+v, %v", round, again, err)
				}
				wantWire(t, w, 1, 1, 1, 0)

				for _, conc := range []int{1, 4} {
					full := &Client{Timeout: 5 * time.Second, Concurrency: conc}
					all, err := full.FetchAll(ctx, uri)
					if err != nil || !reflect.DeepEqual(all, model) {
						t.Fatalf("round %d: FetchAll at Concurrency %d: %d objects, err %v; want %d",
							round, conc, len(all), err, len(model))
					}
				}
				prev = res.Files
			}
		})
	}
}

// versioned is a self-describing object body: its size names its version,
// so a reader holding only an ObjectInfo can recompute the digest it must
// carry.
func versioned(v int) []byte { return bytes.Repeat([]byte{byte(v)}, 1+v) }

// TestStoreDigestInvariant: the digest the store records is always the
// SHA-256 of the content it serves — after every Put, Replace and Delete,
// and as seen by readers racing the writer (run under -race).
func TestStoreDigestInvariant(t *testing.T) {
	store := NewStore()
	names := make([]string, 32)
	for i := range names {
		names[i] = fmt.Sprintf("n%02d.cer", i)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for n, info := range store.Infos() {
					if info.Size < 1 || info.Size > 256 || info.Hash != sha256.Sum256(versioned(info.Size-1)) {
						t.Errorf("reader: Infos()[%s] size %d carries the digest of other bytes", n, info.Size)
						return
					}
				}
			}
		}()
	}

	check := func(step int) {
		t.Helper()
		infos := store.Infos()
		for _, name := range names {
			content, have := store.Get(name)
			info, ok := infos[name]
			if ok != have {
				t.Fatalf("step %d: Get and Infos disagree on whether %s exists", step, name)
			}
			if ok && (info.Size != len(content) || info.Hash != sha256.Sum256(content)) {
				t.Fatalf("step %d: Infos()[%s] is not the size and SHA-256 of Get", step, name)
			}
		}
		if len(infos) != store.Len() {
			t.Fatalf("step %d: Infos has %d entries, store %d", step, len(infos), store.Len())
		}
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 400; step++ {
		name := names[rng.Intn(len(names))]
		switch rng.Intn(8) {
		case 0:
			store.Delete(name)
		case 1:
			files := make(map[string][]byte)
			for _, n := range names[:rng.Intn(len(names))] {
				files[n] = versioned(rng.Intn(200))
			}
			store.Replace(files)
		default:
			store.Put(name, versioned(rng.Intn(200)))
		}
		check(step)
	}
	close(stop)
	readers.Wait()
}
