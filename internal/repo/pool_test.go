package repo

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hosted serves n modules ("m0", "m1", ...) of a few objects each behind one
// listener and names each by a host of its own, the way a hosted publication
// service looks to a relying party: many names, one peer. dial reaches the
// listener whatever the host.
type hosted struct {
	srv    *Server
	addr   string
	uris   []URI
	stores []*Store
	faults []*Faults
}

func newHosted(t *testing.T, n int) *hosted { return newHostedIdle(t, n, 0) }

// newHostedIdle is newHosted with the server's ReadTimeout set (0: default).
func newHostedIdle(t *testing.T, n int, readTimeout time.Duration) *hosted {
	return newHostedPlanned(t, n, readTimeout, func(int) bool { return true })
}

// newHostedPlanned is newHostedIdle with a fault plan attached only to the
// modules planned picks; the others have nil faults, and are the ones the
// server vouches for in VERSIONS.
func newHostedPlanned(t *testing.T, n int, readTimeout time.Duration, planned func(i int) bool) *hosted {
	t.Helper()
	h := &hosted{srv: NewServer()}
	h.srv.ReadTimeout = readTimeout
	for i := 0; i < n; i++ {
		store := NewStore()
		var faults *Faults
		if planned(i) {
			faults = NewFaults()
		}
		for j := 0; j < 3; j++ {
			store.Put(fmt.Sprintf("o%d.roa", j), []byte(fmt.Sprintf("module %d object %d", i, j)))
		}
		module := fmt.Sprintf("m%d", i)
		h.srv.AddModule(module, store, faults)
		h.uris = append(h.uris, URI{Host: fmt.Sprintf("pp%d.example:873", i), Module: module})
		h.stores, h.faults = append(h.stores, store), append(h.faults, faults)
	}
	addr, err := h.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h.addr = addr
	t.Cleanup(func() { _ = h.srv.Close() })
	return h
}

func (h *hosted) dial(ctx context.Context, network, _ string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, network, h.addr)
}

// fetchRound syncs every module once, in order, from prev.
func fetchRound(t *testing.T, c *Client, uris []URI, prev []map[string][]byte) []map[string][]byte {
	t.Helper()
	out := make([]map[string][]byte, len(uris))
	for i, uri := range uris {
		var held map[string][]byte
		if prev != nil {
			held = prev[i]
		}
		res, err := c.SyncIncremental(context.Background(), uri, held)
		if err != nil {
			t.Fatalf("%s: %v", uri, err)
		}
		out[i] = res.Files
	}
	return out
}

// TestCoalesceManyNamesOnePeer: names that reach one peer share parked
// connections — the first fetch of a host always dials (that is how its peer
// is learnt), every later one rides a parked connection except the
// re-proving dial every reproveEvery-th fetch — and the results are those of
// a client that never parks.
func TestCoalesceManyNamesOnePeer(t *testing.T) {
	const n, rounds = 8, 2 * reproveEvery
	h := newHosted(t, n)
	pooled := &Client{Timeout: 5 * time.Second, Dial: h.dial}
	plain := &Client{Timeout: 5 * time.Second, Dial: h.dial, noReuse: true}

	var held, want []map[string][]byte
	for round := 0; round < rounds; round++ {
		h.stores[round%n].Put("churn.roa", []byte(fmt.Sprint("round ", round)))
		held = fetchRound(t, pooled, h.uris, held)
		want = fetchRound(t, plain, h.uris, want)
		if !reflect.DeepEqual(held, want) {
			t.Fatalf("round %d: pooled and unpooled clients fetched different worlds", round)
		}
	}
	fetches := int64(n * rounds)
	if d := plain.dials.Load(); d != fetches || plain.reuses.Load() != 0 {
		t.Errorf("unpooled client: %d dials, %d reuses; want %d, 0", d, plain.reuses.Load(), fetches)
	}
	// Every host is re-proved once per reproveEvery fetches of it, and dials
	// once to be learnt at all.
	dials, reuses := pooled.dials.Load(), pooled.reuses.Load()
	if dials+reuses != fetches {
		t.Errorf("pooled client: %d dials + %d reuses, want %d fetches", dials, reuses, fetches)
	}
	if min, max := int64(n*rounds/reproveEvery), int64(n*(1+rounds/reproveEvery)); dials < min || dials > max {
		t.Errorf("pooled client dialed %d times, want between %d and %d", dials, min, max)
	}
	if pooled.peerMoves.Load() != 0 {
		t.Errorf("peer moves = %d on a world that never moved", pooled.peerMoves.Load())
	}
	waitFor(t, "the server to hold no more than the pool's connections", func() bool { return h.srv.liveConns() <= poolSize })
}

// TestCoalesceDistinctPeersNeverShare: against 8 one-module servers on 8
// listeners the pool never hits across hosts — a sync that visits each in
// turn finds nothing parked for the next one — so dials, results and
// degradation counters are those of a client that never parks.
func TestCoalesceDistinctPeersNeverShare(t *testing.T) {
	const n = 8
	var uris []URI
	for i := 0; i < n; i++ {
		store := NewStore()
		store.Put("o.roa", []byte(fmt.Sprint("server ", i)))
		uri, stop, err := Serve(nil, fmt.Sprintf("m%d", i), store, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(stop)
		uris = append(uris, uri)
	}
	pooled := &Client{Timeout: 5 * time.Second, Retry: fastRetry(1)}
	plain := &Client{Timeout: 5 * time.Second, Retry: fastRetry(1), noReuse: true}
	var held, want []map[string][]byte
	for round := 0; round < 3; round++ {
		held = fetchRound(t, pooled, uris, held)
		want = fetchRound(t, plain, uris, want)
	}
	if !reflect.DeepEqual(held, want) {
		t.Error("pooled and unpooled clients fetched different worlds")
	}
	if pooled.reuses.Load() != 0 || pooled.dials.Load() != plain.dials.Load() {
		t.Errorf("pooled client: %d reuses, %d dials; want 0 and the unpooled client's %d",
			pooled.reuses.Load(), pooled.dials.Load(), plain.dials.Load())
	}
	if pooled.Stats() != plain.Stats() {
		t.Errorf("degradation stats differ: %+v vs %+v", pooled.Stats(), plain.Stats())
	}
}

// errClass reduces a fetch error to what callers act on; transport errors
// carry ephemeral ports and cannot be compared by text.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrCircuitOpen):
		return "circuit-open"
	case errors.Is(err, ErrListingMismatch):
		return "listing-mismatch"
	case Retryable(err):
		return "transport"
	}
	return "permanent: " + err.Error()
}

// TestCoalesceEquivalenceUnderMutationAndFaults is the oracle for reuse: two
// identical hosted worlds take the same random mutations and the same random
// fault plans, one is fetched by a pooling client and one by a client whose
// pool is forced empty, and every SyncIncremental and FetchAll must return
// the same files, counts and class of error, and the two clients the same
// DegradationStats — a parked connection may save a dial and nothing else.
func TestCoalesceEquivalenceUnderMutationAndFaults(t *testing.T) {
	const n = 5
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			worlds := [2]*hosted{newHosted(t, n), newHosted(t, n)}
			now := time.Unix(1000, 0)
			var clients [2]*Client
			for i, w := range worlds {
				clients[i] = &Client{
					Timeout: 2 * time.Second,
					Dial:    w.dial,
					Retry:   fastRetry(2),
					Breakers: NewBreakerSet(BreakerConfig{
						FailureThreshold: 3, Cooldown: time.Minute, Clock: func() time.Time { return now },
					}),
					noReuse: i == 1,
				}
			}
			both := func(m int, do func(*Store, *Faults)) {
				for _, w := range worlds {
					do(w.stores[m], w.faults[m])
				}
			}
			var held [2][]map[string][]byte
			for i := range held {
				held[i] = make([]map[string][]byte, n)
			}
			const noFaults = 6
			plans := [n]int{noFaults, noFaults, noFaults, noFaults, noFaults}
			for round := 0; round < 30; round++ {
				for i := rng.Intn(4); i > 0; i-- {
					m, name := rng.Intn(n), fmt.Sprintf("o%d.roa", rng.Intn(5))
					body, gone := []byte(fmt.Sprint("round ", round, " edit ", i)), rng.Intn(4) == 0
					both(m, func(s *Store, _ *Faults) {
						if gone {
							s.Delete(name)
						} else {
							s.Put(name, body)
						}
					})
				}
				// One module gets a new fault plan, the rest keep theirs.
				m, plan, k := rng.Intn(n), rng.Intn(noFaults+1), 2+rng.Intn(3)
				plans[m] = plan
				both(m, func(_ *Store, f *Faults) {
					f.Restore("")
					switch plan {
					case 0:
						f.FailRate("", 1, k)
					case 1:
						f.FailRate("o1.roa", 1, 2)
					case 2:
						f.SetScript(func(req int) FaultAction {
							if req%k == 0 {
								return ActErr
							}
							return ActNone
						})
					case 3:
						f.SetScript(func(req int) FaultAction {
							if req%k == 1 {
								return ActDropConn
							}
							return ActNone
						})
					case 4:
						f.Truncate("o2.roa")
					case 5:
						f.Refuse(true)
					}
				})
				now = now.Add(20 * time.Second)

				for m := 0; m < n; m++ {
					full := rng.Intn(5) == 0
					var got [2]any
					var errs [2]error
					for i, c := range clients {
						uri := worlds[i].uris[m]
						if full {
							// Two shards race for the server's fault counters:
							// only a healthy module is fetched in parallel.
							c.Concurrency = 1
							if plans[m] == noFaults {
								c.Concurrency = 2
							}
							files, err := c.FetchAll(context.Background(), uri)
							got[i], errs[i] = files, err
							continue
						}
						res, err := c.SyncIncremental(context.Background(), uri, held[i][m])
						got[i], errs[i] = res, err
						if err == nil {
							held[i][m] = res.Files
						}
					}
					if a, b := errClass(errs[0]), errClass(errs[1]); a != b {
						t.Fatalf("round %d module %d (plan %d, full %v): pooled %q, unpooled %q", round, m, plans[m], full, a, b)
					}
					if !reflect.DeepEqual(got[0], got[1]) {
						t.Fatalf("round %d module %d (plan %d, full %v): results differ:\n%+v\n%+v", round, m, plans[m], full, got[0], got[1])
					}
				}
				if a, b := clients[0].Stats(), clients[1].Stats(); a != b {
					t.Fatalf("round %d: degradation stats differ: pooled %+v, unpooled %+v", round, a, b)
				}
			}
			if clients[0].reuses.Load() == 0 || clients[1].reuses.Load() != 0 {
				t.Errorf("reuses: pooled %d, unpooled %d; the oracle compared nothing", clients[0].reuses.Load(), clients[1].reuses.Load())
			}
			if clients[0].dials.Load() >= clients[1].dials.Load() {
				t.Errorf("pooled client dialed %d times, unpooled %d", clients[0].dials.Load(), clients[1].dials.Load())
			}
		})
	}
}

// TestCoalesceVerdicts is the table of what reuse lets a repository, a
// network or a caller try, each with its written verdict.
func TestCoalesceVerdicts(t *testing.T) {
	ctx := context.Background()
	// warm leaves one clean connection parked: module 0's.
	warm := func(t *testing.T, h *hosted, c *Client) {
		t.Helper()
		if _, err := c.SyncIncremental(ctx, h.uris[0], nil); err != nil {
			t.Fatal(err)
		}
		if parked(c) != 1 {
			t.Fatalf("%d connections parked after a clean fetch, want 1", parked(c))
		}
	}

	t.Run("peer closed the parked socket: an ordinary counted retry", func(t *testing.T) {
		h := newHostedIdle(t, 2, 50*time.Millisecond)
		c := &Client{Timeout: time.Second, Dial: h.dial, Retry: fastRetry(1), Breakers: NewBreakerSet(BreakerConfig{FailureThreshold: 5})}
		warm(t, h, c)
		waitFor(t, "the server to drop the idle connection", func() bool { return h.srv.liveConns() == 0 })
		res, err := c.SyncIncremental(ctx, h.uris[0], nil)
		if err != nil || len(res.Files) != 3 {
			t.Fatalf("fetch after the peer hung up: %v", err)
		}
		if s := c.Stats(); s.Retries != 1 || c.reuses.Load() != 1 || c.dials.Load() != 2 {
			t.Errorf("retries %d, reuses %d, dials %d; want 1, 1, 2: the dead socket costs the one retry a dropped connection costs, and the retry dials",
				s.Retries, c.reuses.Load(), c.dials.Load())
		}
	})

	t.Run("peer closed the parked socket and the client has no retries: the fetch fails", func(t *testing.T) {
		h := newHostedIdle(t, 2, 50*time.Millisecond)
		c := &Client{Timeout: time.Second, Dial: h.dial}
		warm(t, h, c)
		waitFor(t, "the server to drop the idle connection", func() bool { return h.srv.liveConns() == 0 })
		if _, err := c.SyncIncremental(ctx, h.uris[0], nil); err == nil || !Retryable(err) {
			t.Fatalf("err = %v, want a transport failure: there is no free redial", err)
		}
		if _, err := c.SyncIncremental(ctx, h.uris[0], nil); err != nil {
			t.Fatalf("the next fetch dials and succeeds: %v", err)
		}
	})

	t.Run("breaker open: fast-fail, nothing checked out", func(t *testing.T) {
		h := newHosted(t, 2)
		c := &Client{Timeout: time.Second, Dial: h.dial, Breakers: NewBreakerSet(BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour})}
		warm(t, h, c)
		if _, err := c.SyncIncremental(ctx, h.uris[1], nil); err != nil { // module 1's host is now known to share the peer
			t.Fatal(err)
		}
		c.Breakers.Failure(h.uris[1].String())
		reuses, before := c.reuses.Load(), parked(c)
		if _, err := c.SyncIncremental(ctx, h.uris[1], nil); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("err = %v, want ErrCircuitOpen", err)
		}
		if parked(c) != before || c.reuses.Load() != reuses {
			t.Errorf("%d parked (was %d), %d new reuses: an open breaker must not touch the pool", parked(c), before, c.reuses.Load()-reuses)
		}
		if _, err := c.SyncIncremental(ctx, h.uris[0], nil); err != nil || c.reuses.Load() != reuses+1 {
			t.Errorf("the healthy point on the same peer still rides the parked connection: err %v, reuses %d", err, c.reuses.Load()-reuses)
		}
	})

	t.Run("context cancelled: the socket is closed, not parked", func(t *testing.T) {
		h := newHosted(t, 2)
		c := &Client{Timeout: 5 * time.Second, Dial: h.dial}
		warm(t, h, c)
		h.faults[0].SetDelay(2 * time.Second)
		cctx, cancel := context.WithCancel(ctx)
		time.AfterFunc(50*time.Millisecond, cancel)
		start := time.Now()
		if _, err := c.SyncIncremental(cctx, h.uris[0], nil); err == nil {
			t.Fatal("a cancelled fetch must fail")
		}
		if time.Since(start) > time.Second {
			t.Errorf("cancellation took %v on a reused connection", time.Since(start))
		}
		if parked(c) != 0 || c.reuses.Load() != 1 {
			t.Errorf("%d connections parked after a cancelled fetch on a reused connection (%d reuses)", parked(c), c.reuses.Load())
		}
		h.faults[0].SetDelay(0)
		// A context that dies after the fetch returned closes nothing: the
		// watcher was stopped before the connection was parked.
		cctx, cancel = context.WithCancel(ctx)
		if _, err := c.SyncIncremental(cctx, h.uris[0], nil); err != nil {
			t.Fatal(err)
		}
		cancel()
		reuses := c.reuses.Load()
		if _, err := c.SyncIncremental(ctx, h.uris[0], nil); err != nil || c.reuses.Load() != reuses+1 {
			t.Errorf("fetch after its predecessor's context ended: err %v, %d reuses", err, c.reuses.Load()-reuses)
		}
	})

	t.Run("ERR reply: a clean exchange, may be parked", func(t *testing.T) {
		h := newHosted(t, 2)
		c := &Client{Timeout: time.Second, Dial: h.dial}
		if _, err := c.Get(ctx, h.uris[0], "no-such.roa"); err == nil || Retryable(err) {
			t.Fatalf("err = %v, want the server's rejection", err)
		}
		if parked(c) != 1 {
			t.Errorf("%d parked after an ERR reply, want 1", parked(c))
		}
		if _, err := c.List(ctx, URI{Host: h.uris[0].Host, Module: "nowhere"}); err == nil || Retryable(err) {
			t.Fatalf("err = %v, want no such module", err)
		}
		if parked(c) != 1 || c.reuses.Load() != 1 {
			t.Errorf("%d parked, %d reuses; want 1, 1", parked(c), c.reuses.Load())
		}
	})

	for name, reply := range map[string]string{
		"malformed header":       "OKAY 3\n",
		"count out of range":     "OK -1\n",
		"malformed listing line": "OK 1\nname-without-size\n",
		"duplicate listing name": "OK 2\na 1 " + zeroDigest + "\na 1 " + zeroDigest + "\n",
		"reply and a half":       "OK 0\nOK",
	} {
		t.Run(name+": must not be parked", func(t *testing.T) {
			addr := scriptedPeer(t, reply)
			c := &Client{Timeout: time.Second}
			_, _ = c.List(ctx, URI{Host: addr, Module: "m"})
			if parked(c) != 0 {
				t.Errorf("%d parked after %q", parked(c), reply)
			}
		})
	}

	t.Run("listing mismatch: must not be parked", func(t *testing.T) {
		h := newHosted(t, 1)
		c := &Client{Timeout: time.Second, Dial: h.dial}
		h.faults[0].FreezeListing(h.stores[0].Infos())
		h.stores[0].Put("o1.roa", []byte("republished behind the frozen listing"))
		prev := map[string][]byte{"o0.roa": []byte("module 0 object 0")}
		if _, err := c.SyncIncremental(ctx, h.uris[0], prev); !errors.Is(err, ErrListingMismatch) {
			t.Fatalf("err = %v, want ErrListingMismatch", err)
		}
		if parked(c) != 0 {
			t.Errorf("%d parked after a body contradicted its listing", parked(c))
		}
	})
}

const zeroDigest = "0000000000000000000000000000000000000000000000000000000000000000"

// scriptedPeer answers the first request line of every connection with reply
// and then holds the connection open.
func scriptedPeer(t *testing.T, reply string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
				if _, err := bufio.NewReader(conn).ReadString('\n'); err == nil {
					_, _ = io.WriteString(conn, reply)
				}
				<-done
			}()
		}
	}()
	return ln.Addr().String()
}

func parked(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(poolIdleAge + 4*time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoalesceMovedHost: a host's name starts reaching a new peer while the
// old peer keeps answering for it with a frozen listing, and keeps the
// client's parked connections warm. The client rides them — that is the
// exposure reuse adds — for fewer than reproveEvery fetches: the re-proving
// dial reaches the new peer, the move is counted, and from then on the host
// is served by the peer its name reaches.
func TestCoalesceMovedHost(t *testing.T) {
	old, moved := newHosted(t, 2), newHosted(t, 2)
	var target atomic.Pointer[hosted]
	target.Store(old)
	victim := old.uris[1]
	c := &Client{Timeout: time.Second, Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
		if addr == victim.Host {
			return target.Load().dial(ctx, network, addr)
		}
		return old.dial(ctx, network, addr)
	}}
	ctx := context.Background()
	sync := func() map[string][]byte {
		t.Helper()
		// Another name on the old peer keeps a connection to it parked.
		if _, err := c.SyncIncremental(ctx, old.uris[0], nil); err != nil {
			t.Fatal(err)
		}
		res, err := c.SyncIncremental(ctx, victim, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Files
	}
	sync()

	old.faults[1].FreezeListing(old.stores[1].Infos())
	moved.stores[1].Put("new.roa", []byte("published where the name now points"))
	target.Store(moved)
	fetches := 0
	for {
		fetches++
		if _, there := sync()["new.roa"]; there {
			break
		}
		if fetches >= reproveEvery {
			t.Fatalf("still on the old peer's frozen listing after %d fetches", fetches)
		}
	}
	t.Logf("reached the new peer on fetch %d of at most %d", fetches, reproveEvery)
	if c.peerMoves.Load() != 1 {
		t.Errorf("peer moves = %d, want 1", c.peerMoves.Load())
	}
	for i := 0; i < 3; i++ {
		if _, there := sync()["new.roa"]; !there {
			t.Fatal("the host fell back to the peer its name no longer reaches")
		}
	}
	if c.peerMoves.Load() != 1 {
		t.Errorf("peer moves = %d after the move settled, want 1", c.peerMoves.Load())
	}
}

// TestCoalesceDesync: a peer follows a clean reply with a second one nobody
// asked for, timed to land once the connection has been handed to the next
// fetch, which reads module 0's listing as the answer to its own request. At
// most that one fetch fails — it asks module 1 for module 0's objects and
// what comes back contradicts the listing or is no header at all — its
// connection is never parked again, and every other fetch is clean.
func TestCoalesceDesync(t *testing.T) {
	h := newHosted(t, 3)
	c := &Client{Timeout: time.Second, Dial: h.dial}
	ctx := context.Background()
	held := fetchRound(t, c, h.uris, nil)

	h.faults[0].EchoListing(30 * time.Millisecond)
	failed := 0
	for round := 0; round < 3; round++ {
		for i, uri := range h.uris {
			before := parked(c)
			res, err := c.SyncIncremental(ctx, uri, held[i])
			if err != nil {
				failed++
				if Retryable(err) || parked(c) != before-1 {
					t.Errorf("round %d %s: err %v, %d parked (was %d); want a permanent failure and the connection it rode gone",
						round, uri, err, parked(c), before)
				}
				continue
			}
			if !reflect.DeepEqual(res.Files, h.stores[i].Snapshot()) {
				t.Errorf("round %d %s: a fetch that succeeded returned another module's world", round, uri)
			}
		}
	}
	// Each echo can hit only the fetch that follows module 0's on its socket.
	if failed == 0 || failed > 3 {
		t.Errorf("%d fetches failed over 3 echoes, want between 1 and 3", failed)
	}
	// The last echo was read, as a foreign listing, by the fetch it failed.
	h.faults[0].EchoListing(0)
	for i, files := range fetchRound(t, c, h.uris, held) {
		if !reflect.DeepEqual(files, h.stores[i].Snapshot()) {
			t.Errorf("after the echoes stopped, %s is not its store", h.uris[i])
		}
	}
}

// TestCoalesceServerClosePrompt: Close does not wait out ReadTimeout on
// connections idling between requests, and a reply being written when Close
// is called still arrives whole.
func TestCoalesceServerClosePrompt(t *testing.T) {
	h := newHosted(t, 1)
	body := bytes.Repeat([]byte("x"), 4000)
	h.stores[0].Put("big.roa", body)
	var idle []net.Conn
	for i := 0; i < 8; i++ {
		conn, err := net.Dial("tcp", h.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.WriteString(conn, "LIST m0\n"); err != nil {
			t.Fatal(err)
		}
		if _, err := readList(bufio.NewReader(conn)); err != nil {
			t.Fatal(err)
		}
		idle = append(idle, conn)
	}
	waitFor(t, "8 keep-alive clients", func() bool { return h.srv.liveConns() == 8 })

	// 4000 bytes at 10 kB/s: the body is in flight for 400 ms, and the header
	// arrives with its first tenth.
	h.faults[0].SetBandwidth(10_000)
	busy, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	_ = busy.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(busy, "GET m0 big.roa\n"); err != nil {
		t.Fatal(err)
	}
	reply := bufio.NewReader(busy)
	if header, err := readLine(reply); err != nil || header != "OK 4000" {
		t.Fatalf("reply header %q, err %v", header, err)
	}

	start := time.Now()
	if err := h.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v with 8 idle clients and one reply in flight, want < 1 s (ReadTimeout is 30 s)", took)
	}
	got := make([]byte, len(body))
	if n, err := io.ReadFull(reply, got); err != nil || !bytes.Equal(got, body) {
		t.Errorf("the reply in flight at Close: %d of %d bytes, err %v", n, len(body), err)
	}
	for _, conn := range idle {
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("idle client read %v after Close, want EOF", err)
		}
	}
}

// TestCoalesceParkedConnectionsNeverLeak: nobody closes a Client. A hundred
// of them each sync one module and are dropped; their parked sockets, and the
// server's handlers, are gone within poolIdleAge.
func TestCoalesceParkedConnectionsNeverLeak(t *testing.T) {
	h := newHosted(t, 1)
	runtime.GC()
	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Client{Timeout: 5 * time.Second, Dial: h.dial}
			if _, err := c.SyncIncremental(context.Background(), h.uris[0], nil); err != nil {
				t.Error(err)
			}
		}()
		if i%10 == 9 {
			wg.Wait()
		}
	}
	if live := h.srv.liveConns(); live == 0 {
		t.Fatal("no connection outlived its fetch: nothing was parked, the test proves nothing")
	}
	start := time.Now()
	waitFor(t, "every parked connection to expire", func() bool {
		return h.srv.liveConns() == 0 && runtime.NumGoroutine() <= baseline
	})
	if took := time.Since(start); took > poolIdleAge+time.Second {
		t.Errorf("parked connections took %v to go, bound is %v", took, poolIdleAge)
	}
}
