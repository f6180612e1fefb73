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
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// newVouched is a hosted world none of whose modules has a fault plan: the
// server vouches for every one of them in VERSIONS.
func newVouched(t *testing.T, n int) *hosted {
	return newHostedPlanned(t, n, 0, func(int) bool { return false })
}

// pollRound is fetchRound under one WithPoll context: one polling pass.
func pollRound(t *testing.T, c *Client, uris []URI, prev []map[string][]byte) []map[string][]byte {
	t.Helper()
	ctx := WithPoll(context.Background())
	out := make([]map[string][]byte, len(uris))
	for i, uri := range uris {
		res, err := c.SyncIncremental(ctx, uri, prev[i])
		if err != nil {
			t.Fatalf("%s: %v", uri, err)
		}
		out[i] = res.Files
	}
	return out
}

// wireCounts is what one client has put on the wire, read off its /metrics.
type wireCounts struct{ list, get, versions, skips, lies int }

func (a wireCounts) minus(b wireCounts) wireCounts {
	return wireCounts{a.list - b.list, a.get - b.get, a.versions - b.versions, a.skips - b.skips, a.lies - b.lies}
}

func scrapeWire(t *testing.T, hub *obs.Hub) wireCounts {
	t.Helper()
	series := func(name string) int {
		n, ok := hub.Registry().Sample(name)
		if !ok {
			t.Fatalf("/metrics has no series %s", name)
		}
		return int(n)
	}
	return wireCounts{
		list:     series(`rpki_repo_requests_total{verb="list"}`),
		get:      series(`rpki_repo_requests_total{verb="get"}`),
		versions: series(`rpki_repo_requests_total{verb="versions"}`),
		skips:    series("rpki_repo_feed_skips_total"),
		lies:     series("rpki_repo_feed_lies_total"),
	}
}

// reproving replays pool.go's re-proving schedule for a set of hosts: due
// reports, poll by poll, which hosts a client that consults every host once
// per poll must dial and list for real.
type reproving []uint32

func newReproving(uris []URI) reproving {
	r := make(reproving, len(uris))
	for i, uri := range uris {
		r[i] = stagger(uri.Host)
	}
	return r
}

func (r reproving) due() map[int]bool {
	due := map[int]bool{}
	for i := range r {
		if r[i]+1 >= reproveEvery {
			r[i], due[i] = 0, true
		} else {
			r[i]++
		}
	}
	return due
}

func checkWorld(t *testing.T, what string, h *hosted, held []map[string][]byte) {
	t.Helper()
	for i, files := range held {
		if !reflect.DeepEqual(files, h.stores[i].Snapshot()) {
			t.Fatalf("%s: %s is not its store", what, h.uris[i])
		}
	}
}

// TestFeedExactCounts is the repeatable form of the claim: on a hosted world
// a warm poll asks the peer once and lists only the points whose re-proving
// dial is due, a change costs the one listing and its GETs, and where the feed
// cannot help — a peer without the verb, one peer per point — it costs one
// exchange per re-prove period, or nothing.
func TestFeedExactCounts(t *testing.T) {
	const n = 50
	t.Run("hosted world", func(t *testing.T) {
		h := newVouched(t, n)
		hub := obs.NewHub(time.Now)
		c := &Client{Timeout: 5 * time.Second, Dial: h.dial}
		c.Instrument(hub)
		schedule := newReproving(h.uris)

		held := pollRound(t, c, h.uris, make([]map[string][]byte, n))
		if got, want := scrapeWire(t, hub), (wireCounts{list: n, get: 3 * n}); got != want {
			t.Fatalf("cold poll: %+v, want %+v: nothing is remembered yet, nobody is asked", got, want)
		}
		audited := 0
		for poll := 1; poll <= reproveEvery+3; poll++ {
			before := scrapeWire(t, hub)
			held = pollRound(t, c, h.uris, held)
			due := len(schedule.due())
			audited += due
			if got, want := scrapeWire(t, hub).minus(before), (wireCounts{list: due, versions: 1, skips: n - due}); got != want {
				t.Fatalf("warm poll %d: %+v, want %+v", poll, got, want)
			}
		}
		if audited < n {
			t.Errorf("%d audits over %d polls of %d hosts: some host was never re-proved", audited, reproveEvery+3, n)
		}
		checkWorld(t, "warm", h, held)

		const changed = 7
		h.stores[changed].Put("o1.roa", []byte("republished"))
		before := scrapeWire(t, hub)
		held = pollRound(t, c, h.uris, held)
		due := schedule.due()
		due[changed] = true
		if got, want := scrapeWire(t, hub).minus(before), (wireCounts{list: len(due), get: 1, versions: 1, skips: n - len(due)}); got != want {
			t.Fatalf("poll after one change: %+v, want %+v", got, want)
		}
		checkWorld(t, "after one change", h, held)
		if c.Stats() != (DegradationStats{}) {
			t.Errorf("degradation stats %+v on a healthy world", c.Stats())
		}
	})

	t.Run("peer without the verb", func(t *testing.T) {
		h := newVouched(t, n)
		hub := obs.NewHub(time.Now)
		c := &Client{Timeout: 5 * time.Second, Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := h.dial(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &noVerbConn{Conn: conn}, nil
		}}
		c.Instrument(hub)
		held := pollRound(t, c, h.uris, make([]map[string][]byte, n))
		const polls = 2 * reproveEvery
		for poll := 0; poll < polls; poll++ {
			held = pollRound(t, c, h.uris, held)
		}
		checkWorld(t, "without the verb", h, held)
		want := wireCounts{list: n * (1 + polls), get: 3 * n, versions: 2}
		if got := scrapeWire(t, hub); got != want {
			t.Errorf("%d warm polls: %+v, want %+v: one refused exchange per %d polls, every point listed", polls, got, want, reproveEvery)
		}
		if c.Stats() != (DegradationStats{}) {
			t.Errorf("degradation stats %+v: the connection the peer hung up on must not be parked", c.Stats())
		}
	})

	t.Run("one peer per point", func(t *testing.T) {
		const peers = 8
		var uris []URI
		var stores []*Store
		for i := 0; i < peers; i++ {
			store := NewStore()
			store.Put("o.roa", []byte(fmt.Sprint("server ", i)))
			uri, stop, err := Serve(nil, fmt.Sprintf("m%d", i), store, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(stop)
			uris, stores = append(uris, uri), append(stores, store)
		}
		polled := &Client{Timeout: 5 * time.Second, Retry: fastRetry(1)}
		parent := &Client{Timeout: 5 * time.Second, Retry: fastRetry(1)}
		held := make([]map[string][]byte, peers)
		var want []map[string][]byte
		for round := 0; round < 4; round++ {
			stores[round].Put("churn.roa", []byte(fmt.Sprint("round ", round)))
			held = pollRound(t, polled, uris, held)
			want = fetchRound(t, parent, uris, want)
		}
		if !reflect.DeepEqual(held, want) {
			t.Error("polled and unpolled clients fetched different worlds")
		}
		if v, s := polled.requests[verbVersions].Load(), polled.feedSkips.Load(); v != 0 || s != 0 {
			t.Errorf("%d VERSIONS, %d skips against peers that serve one point each", v, s)
		}
		for v := range verbs {
			if a, b := polled.requests[v].Load(), parent.requests[v].Load(); a != b {
				t.Errorf("%s request lines: %d under WithPoll, %d without", verbs[v], a, b)
			}
		}
		if polled.dials.Load() != parent.dials.Load() || polled.reuses.Load() != parent.reuses.Load() || polled.Stats() != parent.Stats() {
			t.Errorf("dials %d/%d, reuses %d/%d, stats %+v/%+v (under WithPoll / without)",
				polled.dials.Load(), parent.dials.Load(), polled.reuses.Load(), parent.reuses.Load(), polled.Stats(), parent.Stats())
		}
	})
}

// noVerbConn makes its peer look like a server that predates VERSIONS: the
// verb is answered with the ERR every unknown command gets, and the
// connection is closed.
type noVerbConn struct {
	net.Conn
	reply io.Reader
}

func (c *noVerbConn) Write(p []byte) (int, error) {
	if string(p) != "VERSIONS\n" {
		return c.Conn.Write(p)
	}
	c.reply = strings.NewReader("ERR unknown command \"VERSIONS\"\n")
	return len(p), c.Conn.Close()
}

func (c *noVerbConn) Read(p []byte) (int, error) {
	if c.reply != nil {
		return c.reply.Read(p)
	}
	return c.Conn.Read(p)
}

// TestFeedVerdicts is the table of what the feed lets a repository or a caller
// try, each with its written verdict.
func TestFeedVerdicts(t *testing.T) {
	// warmed returns a client that has polled h twice: everything is
	// remembered, and the second poll skipped what was not due.
	warmed := func(t *testing.T, h *hosted, c *Client) []map[string][]byte {
		t.Helper()
		held := pollRound(t, c, h.uris, make([]map[string][]byte, len(h.uris)))
		return pollRound(t, c, h.uris, held)
	}
	// fresh names hosts whose first re-proving dial is far off, so a verdict
	// about skipping is not decided by the audit schedule.
	fresh := func(h *hosted) {
		for i := range h.uris {
			for k := 0; stagger(h.uris[i].Host) > reproveEvery/2; k++ {
				h.uris[i].Host = fmt.Sprintf("pp%d-%d.example:873", i, k)
			}
		}
	}

	t.Run("prev is not the remembered snapshot: listed", func(t *testing.T) {
		h := newVouched(t, 3)
		fresh(h)
		c := &Client{Timeout: time.Second, Dial: h.dial}
		held := warmed(t, h, c)
		if c.feedSkips.Load() != 3 {
			t.Fatalf("%d skips on the warm poll, want 3", c.feedSkips.Load())
		}
		clone := make(map[string][]byte)
		for name, content := range held[0] {
			clone[name] = bytes.Clone(content)
		}
		lists := c.requests[verbList].Load()
		res, err := c.SyncIncremental(WithPoll(context.Background()), h.uris[0], clone)
		if err != nil || !res.Unchanged || res.Reused != 3 {
			t.Fatalf("res %+v, err %v", res, err)
		}
		if c.requests[verbList].Load() != lists+1 {
			t.Error("an equal copy of the remembered snapshot was taken for it: identity, not equality, is what a skip needs")
		}
		// nil is never the remembered snapshot, not even of an empty module.
		if res, err := c.SyncIncremental(WithPoll(context.Background()), h.uris[1], nil); err != nil || res.Unchanged || res.Downloaded != 3 {
			t.Errorf("nil prev: %+v, %v", res, err)
		}
	})

	t.Run("no WithPoll: listed as before", func(t *testing.T) {
		h := newVouched(t, 3)
		fresh(h)
		c := &Client{Timeout: time.Second, Dial: h.dial}
		held := warmed(t, h, c)
		lists, asked := c.requests[verbList].Load(), c.requests[verbVersions].Load()
		fetchRound(t, c, h.uris, held)
		if c.requests[verbList].Load() != lists+3 || c.requests[verbVersions].Load() != asked {
			t.Errorf("%d LIST, %d VERSIONS outside a poll; want 3, 0",
				c.requests[verbList].Load()-lists, c.requests[verbVersions].Load()-asked)
		}
	})

	t.Run("open breaker on a vouched point: the skip does not consult it", func(t *testing.T) {
		h := newVouched(t, 3)
		fresh(h)
		c := &Client{Timeout: time.Second, Dial: h.dial, Breakers: NewBreakerSet(BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour})}
		held := warmed(t, h, c)
		c.Breakers.Failure(h.uris[1].String())
		before := c.Stats()
		again := pollRound(t, c, h.uris, held)
		if after := c.Stats(); after.BreakerFastFails != before.BreakerFastFails {
			t.Errorf("%d fast-fails counted by skips", after.BreakerFastFails-before.BreakerFastFails)
		}
		if !reflect.DeepEqual(again, held) {
			t.Error("skipped points came back changed")
		}
		// The breaker still gates the point as soon as it must be touched.
		h.stores[1].Put("new.roa", []byte("x"))
		if _, err := c.SyncIncremental(WithPoll(context.Background()), h.uris[1], again[1]); !errors.Is(err, ErrCircuitOpen) {
			t.Errorf("err = %v, want ErrCircuitOpen once the point has to be listed", err)
		}
	})

	t.Run("module registered again: its tokens are new", func(t *testing.T) {
		h := newVouched(t, 3)
		fresh(h)
		c := &Client{Timeout: time.Second, Dial: h.dial}
		held := warmed(t, h, c)
		// Another store at the very version the replaced one had.
		twin := NewStore()
		for twin.Version() < h.stores[2].Version() {
			twin.Put("o0.roa", []byte("the twin's object"))
		}
		h.srv.AddModule("m2", twin, nil)
		again := pollRound(t, c, h.uris, held)
		if !reflect.DeepEqual(again[2], twin.Snapshot()) {
			t.Errorf("a replaced module at an equal store version was taken for unchanged: %v", again[2])
		}
	})

	t.Run("module with a fault plan: not vouched for, its faults are met", func(t *testing.T) {
		h := newHostedPlanned(t, 3, 0, func(i int) bool { return i == 1 })
		fresh(h)
		c := &Client{Timeout: time.Second, Dial: h.dial}
		held := warmed(t, h, c)
		if c.feedSkips.Load() != 2 {
			t.Fatalf("%d skips, want 2: the module with a fault plan is listed", c.feedSkips.Load())
		}
		h.faults[1].Refuse(true)
		if _, err := c.SyncIncremental(WithPoll(context.Background()), h.uris[1], held[1]); err == nil || !Retryable(err) {
			t.Errorf("err = %v, want the refusal its fault plan injects", err)
		}
	})

	t.Run("frozen version: the audit finds and counts the lie", func(t *testing.T) {
		h := newHostedPlanned(t, 3, 0, func(i int) bool { return i == 1 })
		fresh(h)
		hub := obs.NewHub(time.Now)
		c := &Client{Timeout: time.Second, Dial: h.dial}
		c.Instrument(hub)
		h.faults[1].FreezeVersion(h.stores[1].Version())
		held := warmed(t, h, c)
		h.stores[1].Put("o1.roa", []byte("republished behind a frozen token"))
		polls := 0
		for !reflect.DeepEqual(held[1], h.stores[1].Snapshot()) {
			if polls++; polls > reproveEvery {
				t.Fatalf("still on the frozen token's world after %d polls", polls)
			}
			held = pollRound(t, c, h.uris, held)
		}
		t.Logf("audited on poll %d of at most %d", polls, reproveEvery)
		if got := scrapeWire(t, hub).lies; got != 1 {
			t.Errorf("rpki_repo_feed_lies_total = %d, want 1", got)
		}
		named := false
		for _, ev := range hub.Recorder().Snapshot() {
			named = named || ev.Kind == obs.EventFeedLie && ev.Module == h.uris[1].String() && strings.Contains(ev.Detail, h.addr)
		}
		if !named {
			t.Errorf("no feed-lie event names peer %s for %s: %v", h.addr, h.uris[1], hub.Recorder().Snapshot())
		}
		// An honest audit — same token, same content — is not a lie.
		for i := 0; i < reproveEvery; i++ {
			held = pollRound(t, c, h.uris, held)
		}
		if got := scrapeWire(t, hub).lies; got != 1 {
			t.Errorf("rpki_repo_feed_lies_total = %d after %d polls of an unchanged world, want 1", got, reproveEvery)
		}
	})

	t.Run("reply with bytes behind it: not believed, not parked", func(t *testing.T) {
		h := newVouched(t, 3)
		fresh(h)
		c := &Client{Timeout: time.Second, Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := h.dial(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &chattyConn{Conn: conn}, nil
		}}
		held := warmed(t, h, c)
		if v, s, l := c.requests[verbVersions].Load(), c.feedSkips.Load(), c.requests[verbList].Load(); v != 1 || s != 0 || l != 6 {
			t.Errorf("%d VERSIONS, %d skips, %d LISTs; want 1, 0, 6: a peer that says more than the reply is not taken at its word", v, s, l)
		}
		// Nor is the stream it left in doubt read as the next fetch's listing.
		checkWorld(t, "behind a chatty peer", h, held)
	})

	t.Run("two points under one host name: each is audited", func(t *testing.T) {
		// Polled in turn, two points of one host split its re-proving budget so
		// that the same one gets the real dial every time; the other must not
		// ride its frozen token forever.
		h := newHosted(t, 2)
		h.uris[1].Host = h.uris[0].Host
		c := &Client{Timeout: time.Second, Dial: h.dial}
		for i := range h.uris {
			h.faults[i].FreezeVersion(h.stores[i].Version())
		}
		held := warmed(t, h, c)
		for i := range h.uris {
			h.stores[i].Put("o1.roa", []byte("republished behind a frozen token"))
		}
		for poll := 0; poll < reproveEvery; poll++ {
			held = pollRound(t, c, h.uris, held)
		}
		checkWorld(t, "after a re-prove period", h, held)
		if got := c.feedLies.Load(); got != 2 {
			t.Errorf("%d lies counted, want 2", got)
		}
	})
}

// chattyConn makes its peer say more than it was asked: the read that delivers
// the VERSIONS reply carries an unsolicited (and well-formed) reply behind it.
type chattyConn struct {
	net.Conn
	extra []byte
}

func (c *chattyConn) Write(p []byte) (int, error) {
	if string(p) == "VERSIONS\n" {
		c.extra = []byte("OK 0\n")
	}
	return c.Conn.Write(p)
}

func (c *chattyConn) Read(p []byte) (int, error) {
	if c.extra == nil {
		return c.Conn.Read(p)
	}
	n, err := c.Conn.Read(p[:len(p)-len(c.extra)])
	n += copy(p[n:], c.extra)
	c.extra = nil
	return n, err
}

// TestFeedForgetsPointsNoLongerPolled: a memo lives as long as polls keep
// fetching its point. One poll after a point left the tree its snapshot is
// dropped and no longer counts towards its peer's two — a client must not hold
// a revoked CA's objects for life, nor keep asking a peer about one point.
func TestFeedForgetsPointsNoLongerPolled(t *testing.T) {
	h := newVouched(t, 4)
	c := &Client{Timeout: time.Second, Dial: h.dial}
	remembered := func() (points, served int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.points), c.peers[0].points
	}
	want := func(what string, n int) {
		t.Helper()
		if points, served := remembered(); points != n || served != n {
			t.Fatalf("%s: %d points remembered, %d counted for the peer; want %d", what, points, served, n)
		}
	}
	held := pollRound(t, c, h.uris, make([]map[string][]byte, 4))
	held = pollRound(t, c, h.uris, held)
	want("whole tree", 4)

	// Point 3 leaves: the first poll without it may be a partial one, the
	// second says it is gone.
	held = pollRound(t, c, h.uris[:3], held[:3])
	want("first poll without the point", 4)
	held = pollRound(t, c, h.uris[:3], held)
	want("second poll without the point", 3)

	// Down to one point the peer is no longer worth asking.
	held = pollRound(t, c, h.uris[:1], held[:1])
	held = pollRound(t, c, h.uris[:1], held)
	want("one point left", 1)
	asked, lists := c.requests[verbVersions].Load(), c.requests[verbList].Load()
	held = pollRound(t, c, h.uris[:1], held)
	if v, l := c.requests[verbVersions].Load()-asked, c.requests[verbList].Load()-lists; v != 0 || l != 1 {
		t.Errorf("%d VERSIONS, %d LIST for a peer serving one remembered point; want 0, 1", v, l)
	}

	// A point that comes back is listed, and remembered again.
	back := pollRound(t, c, h.uris, append(held, nil, nil, nil))
	want("tree restored", 4)
	checkWorld(t, "tree restored", h, back)
	// A fetch outside any poll neither remembers nor forgets.
	fetchRound(t, c, h.uris[:1], back[:1])
	want("after an unpolled fetch", 4)
}

// garbledPeer lists two objects and answers every GET with a line that is
// neither OK nor ERR.
func garbledPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
				r := bufio.NewReader(conn)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					reply := "WHAT 7\n"
					if strings.HasPrefix(line, "LIST") {
						reply = "OK 2\n" + entryLine("a.roa", []byte("a")) + entryLine("b.roa", []byte("b"))
					}
					if _, err := io.WriteString(conn, reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestSyncIncrementalGarbledGetFailsSync: only a well-formed ERR means "the
// object vanished". A peer whose GET replies are no replies at all fails the
// incremental sync — permanently, so the caller takes its full-fetch fallback —
// instead of yielding an empty, error-free snapshot.
func TestSyncIncrementalGarbledGetFailsSync(t *testing.T) {
	c := &Client{Timeout: time.Second, Retry: fastRetry(2)}
	res, err := c.SyncIncremental(context.Background(), URI{Host: garbledPeer(t), Module: "m"}, nil)
	if err == nil {
		t.Fatalf("a peer that garbles every GET synced cleanly: %+v", res)
	}
	if res != nil || Retryable(err) || errors.Is(err, errRejected) {
		t.Errorf("res %+v, err %v; want no result and a permanent error that is not a rejection", res, err)
	}
	if got := c.listingMismatches.Load(); got != 2 {
		t.Errorf("%d replies counted as contradicting the listing, want 2", got)
	}
	if c.Stats().Retries != 0 || parked(c) != 0 {
		t.Errorf("%d retries, %d parked: the peer answered, and its stream is not to be reused", c.Stats().Retries, parked(c))
	}
}

// TestFeedEquivalenceUnderMutationAndFaults is the oracle for the feed, beside
// the one for reuse: two identical hosted worlds — half the modules vouched
// for, half behind fault plans — take the same random mutations and the same
// random fault plans, one is polled under WithPoll and one fetched as before,
// and every SyncIncremental and FetchAll must return the same result
// (Reused and Unchanged included) and class of error, and the two clients the
// same DegradationStats: a skip may save a listing and nothing else.
func TestFeedEquivalenceUnderMutationAndFaults(t *testing.T) {
	const n, planned = 6, 3 // modules 0..2 carry fault plans, 3..5 are vouched for
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var worlds [2]*hosted
			var clients [2]*Client
			now := time.Unix(1000, 0)
			for i := range worlds {
				worlds[i] = newHostedPlanned(t, n, 0, func(m int) bool { return m < planned })
				clients[i] = &Client{
					Timeout: 2 * time.Second,
					Dial:    worlds[i].dial,
					Retry:   fastRetry(2),
					Breakers: NewBreakerSet(BreakerConfig{
						FailureThreshold: 3, Cooldown: time.Minute, Clock: func() time.Time { return now },
					}),
				}
			}
			var held [2][]map[string][]byte
			for i := range held {
				held[i] = make([]map[string][]byte, n)
			}
			for round := 0; round < 3*reproveEvery; round++ {
				for i := rng.Intn(3); i > 0; i-- {
					m, name := rng.Intn(n), fmt.Sprintf("o%d.roa", rng.Intn(5))
					body, gone := []byte(fmt.Sprint("round ", round, " edit ", i)), rng.Intn(4) == 0
					for _, w := range worlds {
						if gone {
							w.stores[m].Delete(name)
						} else {
							w.stores[m].Put(name, body)
						}
					}
				}
				m, plan, k := rng.Intn(planned), rng.Intn(5), 2+rng.Intn(3)
				for _, w := range worlds {
					f := w.faults[m]
					f.Restore("")
					switch plan {
					case 0:
						f.FailRate("", 1, k)
					case 1:
						f.SetScript(func(req int) FaultAction {
							if req%k == 0 {
								return ActErr
							}
							return ActNone
						})
					case 2:
						f.Truncate("o2.roa")
					case 3:
						f.Refuse(true)
					}
				}
				now = now.Add(20 * time.Second)

				ctxs := [2]context.Context{WithPoll(context.Background()), context.Background()}
				for m := 0; m < n; m++ {
					full := rng.Intn(8) == 0
					var got [2]any
					var errs [2]error
					for i, c := range clients {
						uri := worlds[i].uris[m]
						if full {
							got[i], errs[i] = c.FetchAll(ctxs[i], uri)
							continue
						}
						res, err := c.SyncIncremental(ctxs[i], uri, held[i][m])
						got[i], errs[i] = res, err
						if err == nil {
							held[i][m] = res.Files
						}
					}
					if a, b := errClass(errs[0]), errClass(errs[1]); a != b {
						t.Fatalf("round %d module %d (full %v): with the feed %q, without %q", round, m, full, a, b)
					}
					if !reflect.DeepEqual(got[0], got[1]) {
						t.Fatalf("round %d module %d (full %v): results differ:\n%+v\n%+v", round, m, full, got[0], got[1])
					}
				}
				if a, b := clients[0].Stats(), clients[1].Stats(); a != b {
					t.Fatalf("round %d: degradation stats differ: with the feed %+v, without %+v", round, a, b)
				}
			}
			if clients[0].feedSkips.Load() == 0 || clients[1].feedSkips.Load() != 0 {
				t.Errorf("skips: %d with the feed, %d without; the oracle compared nothing", clients[0].feedSkips.Load(), clients[1].feedSkips.Load())
			}
			if a, b := clients[0].requests[verbList].Load(), clients[1].requests[verbList].Load(); a >= b {
				t.Errorf("%d LISTs with the feed, %d without", a, b)
			}
			if clients[0].feedLies.Load() != 0 {
				t.Errorf("%d lies counted against an honest server", clients[0].feedLies.Load())
			}
		})
	}
}

// TestReadVersionsRejectsAmbiguousFeeds: a feed line is a claim a skip will
// rest on, so one that can be read two ways is malformed — permanently.
func TestReadVersionsRejectsAmbiguousFeeds(t *testing.T) {
	read := func(s string) (map[string]string, error) {
		return readVersions(bufio.NewReader(strings.NewReader(s)))
	}
	if feed, err := read("OK 2\nm0 n.1.7\nm1 n.2.9\nOK 0\n"); err != nil || !reflect.DeepEqual(feed, map[string]string{"m0": "n.1.7", "m1": "n.2.9"}) {
		t.Fatalf("well-formed feed: %v, %v", feed, err)
	}
	for _, tc := range []struct{ name, reply string }{
		{"duplicate module", "OK 2\nm0 a\nm0 a\n"},
		{"duplicate module, other token", "OK 2\nm0 a\nm0 b\n"},
		{"no token", "OK 1\nm0\n"},
		{"empty token", "OK 1\nm0 \n"},
		{"three fields", "OK 1\nm0 a b\n"},
		{"tab separated", "OK 1\nm0\ta\n"},
		{"trailing CR", "OK 1\nm0 a\r\n"},
		{"slash in module", "OK 1\nm/0 a\n"},
		{"empty module", "OK 1\n a\n"},
		{"over-long token", "OK 1\nm0 " + strings.Repeat("t", maxTokenLen+1) + "\n"},
		{"non-ASCII token", "OK 1\nm0 tök\n"},
		{"count over maxFeedEntries", fmt.Sprintf("OK %d\n", maxFeedEntries+1)},
		{"a listing header", "OK 1 n.1.7\nm0 a\n"},
		{"a listing", "OK 1\n" + entryLine("a.roa", []byte("a"))},
	} {
		feed, err := read(tc.reply)
		if err == nil || feed != nil {
			t.Errorf("%s: accepted as %v", tc.name, feed)
		} else if Retryable(err) {
			t.Errorf("%s: %v is retryable, want permanent", tc.name, err)
		}
	}
	if feed, err := read("OK 2\nm0 a\n"); err == nil || !Retryable(err) {
		t.Errorf("entries short of the count: %v, %v; want a transport error", feed, err)
	}
	if _, err := read("ERR unknown command \"VERSIONS\"\n"); !errors.Is(err, errRejected) {
		t.Errorf("err = %v, want the rejection", err)
	}
	// The LIST header takes a token; neither reply parses as the other.
	if _, err := readList(bufio.NewReader(strings.NewReader("OK 1\nm0 n.1.7\n"))); err == nil || Retryable(err) {
		t.Errorf("a feed read as a listing: %v", err)
	}
	for _, header := range []string{"OK 0 " + strings.Repeat("t", maxTokenLen+1), "OK 0 a b", "OK 0 t\x7f"} {
		if _, err := readListing(bufio.NewReader(strings.NewReader(header + "\n"))); err == nil || Retryable(err) {
			t.Errorf("LIST header %q: %v", header, err)
		}
	}
	if l, err := readListing(bufio.NewReader(strings.NewReader("OK 0 n.1.7\n"))); err != nil || l.token != "n.1.7" || len(l.objects) != 0 {
		t.Errorf("tokened header: %+v, %v", l, err)
	}
}

// FuzzReadVersions: whatever a repository sends in place of a VERSIONS reply,
// the parser returns an error or a feed inside the protocol's bounds — every
// module a name validName accepts, every token valid, no more entries than
// lines received — and never panics.
func FuzzReadVersions(f *testing.F) {
	f.Add([]byte("OK 1\nm0 n.1.7\n"))
	f.Add([]byte("OK 2\nm0 a\nm0 a\n"))
	f.Add([]byte("OK 0\n"))
	f.Add([]byte("OK 1048576\nm0 a\n"))
	f.Add([]byte("OK 3\nabc"))
	f.Add([]byte("ERR unknown command \"VERSIONS\"\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		feed, err := readVersions(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			if feed != nil {
				t.Fatalf("error %v with a feed", err)
			}
			return
		}
		if len(feed) > maxFeedEntries || len(feed) > bytes.Count(data, []byte{'\n'}) {
			t.Fatalf("%d entries from %d lines", len(feed), bytes.Count(data, []byte{'\n'}))
		}
		for module, token := range feed {
			if !validName(module) || !validToken(token) {
				t.Fatalf("accepted entry %q %q", module, token)
			}
		}
		// A listing header is held to the same token grammar.
		if l, err := readListing(bufio.NewReader(bytes.NewReader(data))); err == nil && l.token != "" && !validToken(l.token) {
			t.Fatalf("accepted listing token %q", l.token)
		}
	})
}
