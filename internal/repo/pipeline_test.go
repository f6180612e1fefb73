package repo

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// wire records what a Client puts on the network: dials, Write calls, and
// every request line, in order, with the connection that carried it. It
// counts at the Client.Dial seam, below everything the client does, so a
// check that was skipped to save a round trip shows up as a missing line.
// Connections outlive a fetch (the client parks clean ones), so they are
// numbered for the life of the fixture and reset forgets lines, not
// connections.
type wire struct {
	mu     sync.Mutex
	opened int // connections dialed, ever: the next connection's number
	dials  int // connections dialed since the last reset
	writes int
	sent   []wireLine
}

type wireLine struct {
	conn int
	text string
}

func (w *wire) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.opened++
	w.dials++
	return &wireConn{Conn: conn, w: w, id: w.opened}, nil
}

type wireConn struct {
	net.Conn
	w  *wire
	id int
}

func (c *wireConn) Write(p []byte) (int, error) {
	c.w.mu.Lock()
	c.w.writes++
	for _, line := range strings.Split(strings.TrimSuffix(string(p), "\n"), "\n") {
		c.w.sent = append(c.w.sent, wireLine{c.id, line})
	}
	c.w.mu.Unlock()
	return c.Conn.Write(p)
}

// byConn returns the request lines since the last reset, grouped by
// connection in order of first use.
func (w *wire) byConn() [][]string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out [][]string
	slot := map[int]int{}
	for _, l := range w.sent {
		i, seen := slot[l.conn]
		if !seen {
			i = len(out)
			slot[l.conn], out = i, append(out, nil)
		}
		out[i] = append(out[i], l.text)
	}
	return out
}

// counts returns dials, connections used (dialed or taken from the client's
// pool), client writes, and request lines per verb since the last reset.
func (w *wire) counts() (dials, used, writes int, verbs map[string]int) {
	conns := w.byConn()
	w.mu.Lock()
	defer w.mu.Unlock()
	verbs = map[string]int{}
	for _, l := range w.sent {
		verbs[strings.Fields(l.text)[0]]++
	}
	return w.dials, len(conns), w.writes, verbs
}

func (w *wire) reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sent, w.dials, w.writes = nil, 0, 0
}

// lines returns the request lines written on the i-th connection used since
// the last reset.
func (w *wire) lines(i int) []string { return w.byConn()[i] }

// moduleOf builds k objects named so that name order is index order.
func moduleOf(k, size int) map[string][]byte {
	files := make(map[string][]byte, k)
	for i := 0; i < k; i++ {
		files[fmt.Sprintf("obj%05d.roa", i)] = bytes.Repeat([]byte{byte(i), byte(i >> 8)}, size/2)
	}
	return files
}

// wantWire checks connections used and request lines exactly — any line that
// is neither a LIST nor a GET counts as "other" and must not exist — and
// bounds writes. A used connection was dialed or came out of the pool: dials
// may be fewer than conns, never more.
func wantWire(t *testing.T, w *wire, conns, maxWrites, list, get int) {
	t.Helper()
	d, used, writes, verbs := w.counts()
	other := -verbs["LIST"] - verbs["GET"]
	for _, n := range verbs {
		other += n
	}
	if used != conns || d > conns || verbs["LIST"] != list || verbs["GET"] != get || other != 0 {
		t.Errorf("wire: %d connections (%d dialed), %d LIST, %d GET, %d other; want %d, %d, %d, 0",
			used, d, verbs["LIST"], verbs["GET"], other, conns, list, get)
	}
	if writes > maxWrites {
		t.Errorf("wire: %d client writes, want at most %d", writes, maxWrites)
	}
}

// TestPipelinedSyncWireShape pins the fetch shape: one connection per
// publication point, one LIST and nothing else when nothing changed, a GET
// only for what changed — in a handful of writes rather than one per line.
func TestPipelinedSyncWireShape(t *testing.T) {
	const k = 150 // three windows: 64 + 64 + 22
	windows := (k + pipelineWindow - 1) / pipelineWindow
	uri, store, _ := startTestServer(t, moduleOf(k, 64))
	w := &wire{}
	c := &Client{Timeout: 5 * time.Second, Dial: w.dial}
	ctx := context.Background()

	cold, err := c.SyncIncremental(ctx, uri, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Downloaded != k || cold.Unchanged {
		t.Errorf("cold sync: downloaded %d unchanged %v", cold.Downloaded, cold.Unchanged)
	}
	wantWire(t, w, 1, 1+windows, 1, k)

	w.reset()
	warm, err := c.SyncIncremental(ctx, uri, cold.Files)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Unchanged || warm.Reused != k {
		t.Errorf("warm sync: %+v", warm)
	}
	wantWire(t, w, 1, 1, 1, 0)

	// One object changes at the same size: only its digest tells, and
	// exactly one is downloaded.
	w.reset()
	changed := "obj00077.roa"
	store.Put(changed, bytes.Repeat([]byte{0xEE}, 64))
	delta, err := c.SyncIncremental(ctx, uri, warm.Files)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Unchanged || delta.Reused != k-1 || delta.Downloaded != 1 || !bytes.Equal(delta.Files[changed], bytes.Repeat([]byte{0xEE}, 64)) {
		t.Errorf("delta sync: reused %d downloaded %d unchanged %v", delta.Reused, delta.Downloaded, delta.Unchanged)
	}
	wantWire(t, w, 1, 2, 1, 1)
	lines := w.lines(0)
	if last := lines[len(lines)-1]; last != "GET test "+changed {
		t.Errorf("last request line = %q, want the GET of the changed object", last)
	}

	// A resized object is downloaded; a new one likewise.
	w.reset()
	store.Put(changed, []byte("resized"))
	store.Put("zz-new.roa", []byte("new"))
	grown, err := c.SyncIncremental(ctx, uri, delta.Files)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Downloaded != 2 || grown.Reused != k-1 {
		t.Errorf("resize sync: %+v", grown)
	}
	wantWire(t, w, 1, 2, 1, 2)

	// FetchAll: shard 0 rides the LIST connection, so Concurrency connections
	// — exactly, on a client that parks nothing: every shard dials.
	w.reset()
	plain := &Client{Timeout: 5 * time.Second, Dial: w.dial, Concurrency: 3, noReuse: true}
	all, err := plain.FetchAll(ctx, uri)
	if err != nil || len(all) != k+1 {
		t.Fatalf("FetchAll: %d objects, err %v", len(all), err)
	}
	wantWire(t, w, 3, 1+3*windows, 1, k+1)
	if dials, _, _, _ := w.counts(); dials != 3 {
		t.Errorf("FetchAll dialed %d times with nothing parked, want 3", dials)
	}
	// With the pool, a shard that is done before another starts hands its
	// connection on: the same lines on two or three connections (a single one
	// would mean the shards ran in turn).
	w.reset()
	c.Concurrency = 3
	all, err = c.FetchAll(ctx, uri)
	if err != nil || len(all) != k+1 {
		t.Fatalf("pooled FetchAll: %d objects, err %v", len(all), err)
	}
	_, used, _, _ := w.counts()
	if used < 2 || used > 3 {
		t.Errorf("pooled FetchAll used %d connections, want 2 or 3", used)
	}
	wantWire(t, w, used, 1+3*windows, 1, k+1)

	// The single-shot calls are pipelines of one.
	w.reset()
	if _, err := c.Get(ctx, uri, changed); err != nil {
		t.Fatal(err)
	}
	wantWire(t, w, 1, 1, 0, 1)
}

// TestPipelinedRequestMetrics: the dials-per-sync ratio, what reuse saved of
// it and the per-verb request counts are on /metrics, as counters read at
// scrape time. Two fetches used two connections: each was a dial or a reuse.
func TestPipelinedRequestMetrics(t *testing.T) {
	const k = 70
	uri, _, _ := startTestServer(t, moduleOf(k, 32))
	hub := obs.NewHub(time.Now)
	c := &Client{Timeout: 5 * time.Second}
	c.Instrument(hub)
	cold, err := c.SyncIncremental(context.Background(), uri, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SyncIncremental(context.Background(), uri, cold.Files); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := hub.Registry().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE rpki_repo_dials_total counter",
		fmt.Sprintf("rpki_repo_dials_total %d", c.dials.Load()),
		"# TYPE rpki_repo_conn_reuses_total counter",
		fmt.Sprintf("rpki_repo_conn_reuses_total %d", 2-c.dials.Load()),
		"rpki_repo_peer_moves_total 0",
		"# TYPE rpki_repo_requests_total counter",
		`rpki_repo_requests_total{verb="list"} 2`,
		fmt.Sprintf(`rpki_repo_requests_total{verb="get"} %d`, k),
		"rpki_repo_listing_mismatch_total 0",
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if strings.Contains(sb.String(), `verb="stat"`) {
		t.Error("/metrics still carries a stat verb")
	}
}

// TestPipelinedLargeModule: many windows and bodies far beyond any socket
// buffer complete, byte for byte — the window discipline (write a window
// only after the previous one is fully read) cannot deadlock against a
// server blocked writing bodies.
func TestPipelinedLargeModule(t *testing.T) {
	const k = 5000
	files := moduleOf(k, 4096) // 20 MB in all
	uri, _, _ := startTestServer(t, files)
	c := &Client{Timeout: 10 * time.Second}
	ctx := context.Background()
	cold, err := c.SyncIncremental(ctx, uri, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Files) != k {
		t.Fatalf("got %d objects, want %d", len(cold.Files), k)
	}
	for name, want := range files {
		if !bytes.Equal(cold.Files[name], want) {
			t.Fatalf("%s differs", name)
		}
	}
	warm, err := c.SyncIncremental(ctx, uri, cold.Files)
	if err != nil || !warm.Unchanged || warm.Reused != k {
		t.Fatalf("warm sync of the large module: %v %+v", err, warm)
	}
}

// TestPipelinedResumeAfterDrop: the connection dies after the j-th reply of
// a window. The client redials once, spends one retry, and resumes at
// request j+1: nothing already answered is asked again.
func TestPipelinedResumeAfterDrop(t *testing.T) {
	const k, j = 10, 4
	uri, _, faults := startTestServer(t, moduleOf(k, 32))
	w := &wire{}
	c := &Client{Timeout: 5 * time.Second, Retry: fastRetry(2), Dial: w.dial}

	// Request 1 is the LIST, requests 2.. are the GETs in name order: drop
	// on the (j+1)-th GET, once.
	var served atomic.Int64
	faults.SetScript(func(n int) FaultAction {
		if n == 1+j+1 {
			return ActDropConn
		}
		served.Add(1)
		return ActNone
	})
	cold, err := c.SyncIncremental(context.Background(), uri, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Downloaded != k || len(cold.Files) != k {
		t.Errorf("resumed sync: %+v", cold)
	}
	if d := c.Stats().Retries; d != 1 {
		t.Errorf("retries = %d, want 1", d)
	}
	if dials, used, _, _ := w.counts(); dials != 2 || used != 2 {
		t.Fatalf("%d dials, %d connections used, want 2 and 2 (one redial)", dials, used)
	}
	second := w.lines(1)
	if len(second) != k-j || second[0] != fmt.Sprintf("GET test obj%05d.roa", j) {
		t.Errorf("redial sent %d lines starting %q; want %d starting at object %d", len(second), second[0], k-j, j)
	}
	// LIST + k GETs answered, each exactly once.
	if n := served.Load(); n != 1+k {
		t.Errorf("server answered %d requests, want %d", n, 1+k)
	}
}

// TestPipelinedDeadlineIsPerExchange: a reply slower than Timeout in the
// middle of a window fails after about one Timeout — the deadline is re-armed
// per reply, it is not Timeout for the window nor window × Timeout.
func TestPipelinedDeadlineIsPerExchange(t *testing.T) {
	const k = pipelineWindow
	const timeout = 150 * time.Millisecond
	uri, _, faults := startTestServer(t, moduleOf(k, 32))
	c := &Client{Timeout: timeout}
	ctx := context.Background()
	faults.DelayObject("obj00002.roa", 5*timeout)
	start := time.Now()
	_, err := c.SyncIncremental(ctx, uri, nil)
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), `fetching "obj00002.roa"`) {
		t.Fatalf("err = %v, want the third GET to time out", err)
	}
	if elapsed < timeout || elapsed > 4*timeout {
		t.Errorf("failed after %v, want about one Timeout (%v)", elapsed, timeout)
	}

	// The other direction: every reply is slow but within Timeout. A
	// deadline armed once per window would expire; per reply it holds.
	uri, _, faults = startTestServer(t, moduleOf(10, 32))
	faults.SetDelay(timeout / 5)
	res, err := c.SyncIncremental(ctx, uri, nil)
	if err != nil {
		t.Fatalf("11 replies of Timeout/5 each must not trip a per-exchange deadline: %v", err)
	}
	if res.Downloaded != 10 {
		t.Errorf("downloaded %d, want 10", res.Downloaded)
	}
}

// TestPipelinedListingMismatchFailsSync: the point republishes an object
// between the LIST and that object's GET, mid-window. The body contradicts
// the listing, so the incremental sync fails (the relying party falls back to
// a clean full fetch) and the objects answered around it are not stitched
// into a partial result.
func TestPipelinedListingMismatchFailsSync(t *testing.T) {
	uri, store, faults := startTestServer(t, moduleOf(10, 32))
	c := &Client{Timeout: 5 * time.Second, Retry: fastRetry(1)}
	ctx := context.Background()
	// Request 1 is the LIST, requests 2.. the GETs in name order: republish
	// object 7 while object 4 is being served.
	republished := bytes.Repeat([]byte{0xEE}, 32)
	faults.SetScript(func(n int) FaultAction {
		if n == 1+5 {
			store.Put("obj00007.roa", republished)
		}
		return ActNone
	})
	res, err := c.SyncIncremental(ctx, uri, nil)
	if !errors.Is(err, ErrListingMismatch) || res != nil {
		t.Fatalf("a body contradicting its listing must fail the sync, got %+v, %v", res, err)
	}
	if !strings.Contains(err.Error(), `"obj00007.roa"`) {
		t.Errorf("err = %v, want it to name the object", err)
	}
	if Retryable(err) || c.Stats().Retries != 0 {
		t.Errorf("the server answered: nothing to retry (err %v, %d retries)", err, c.Stats().Retries)
	}
	faults.SetScript(nil)
	if all, err := c.FetchAll(ctx, uri); err != nil || len(all) != 10 || !bytes.Equal(all["obj00007.roa"], republished) {
		t.Errorf("the full-fetch fallback must serve the republished point: %d objects, %v", len(all), err)
	}
}

// TestPipelinedOpenBreakerDialsNothing: with the point's breaker open, a sync
// fails fast with ErrCircuitOpen and never reaches the network.
func TestPipelinedOpenBreakerDialsNothing(t *testing.T) {
	uri, _, _ := startTestServer(t, moduleOf(5, 32))
	w := &wire{}
	c := &Client{
		Timeout:  time.Second,
		Retry:    fastRetry(3),
		Dial:     w.dial,
		Breakers: NewBreakerSet(BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour}),
	}
	c.Breakers.Failure(uri.String())
	before := c.Stats()
	if _, err := c.SyncIncremental(context.Background(), uri, nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if _, err := c.FetchAll(context.Background(), uri); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("FetchAll err = %v, want ErrCircuitOpen", err)
	}
	if dials, used, _, _ := w.counts(); dials != 0 || used != 0 {
		t.Errorf("open breaker dialed %d times and wrote on %d connections", dials, used)
	}
	after := c.Stats()
	if after.Retries != before.Retries || after.BreakerFastFails-before.BreakerFastFails != 2 {
		t.Errorf("open breaker: retries %d -> %d, fast-fails %d -> %d; want no retry, 2 fast-fails",
			before.Retries, after.Retries, before.BreakerFastFails, after.BreakerFastFails)
	}
}

// TestPipelinedCancelMidWindow: cancelling the context while the client
// waits for a reply in the middle of a window returns promptly, not after
// the per-exchange deadline.
func TestPipelinedCancelMidWindow(t *testing.T) {
	uri, _, faults := startTestServer(t, moduleOf(20, 32))
	c := &Client{Timeout: 10 * time.Second, Retry: fastRetry(3)}
	faults.DelayObject("obj00007.roa", 2*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	_, err := c.SyncIncremental(ctx, uri, nil)
	if err == nil {
		t.Fatal("a canceled sync must fail")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancellation took %v to take effect", elapsed)
	}
}
