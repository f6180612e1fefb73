package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/repo"
	"repro/internal/rp"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// links a span to the span that caused it (0 for an op's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counts carries the op's counter deltas (op roots only).
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory; they are written out only when the run
// ends. A nil tracer (the untraced run) records nothing. In the traced run
// the loop switches it off for every other cycle, so one process yields
// both the traced and the untraced median and their difference is the
// tracing overhead.
type tracer struct {
	t0 time.Time
	on atomic.Bool
	// op and cur are the running op's id and the span new work hangs off
	// (the rp.sync span while a sync runs). One op runs at a time.
	op  atomic.Int64
	cur atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu

	counters
}

// counters are the work counts taken at the layer boundaries the benchmark
// decorates. Deltas across an op give that op's exact counts.
type counters struct {
	fetchCalls, dials, list, stat, get, bytesIn, bytesOut atomic.Int64
	inflight, peakInflight                                atomic.Int64
	fds, peakFDs                                          atomic.Int64
	peakGoroutines                                        atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// begin opens a span under parent and returns its id, 0 when not tracing.
func (t *tracer) begin(name string, parent int) int {
	if !t.active() {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: int(t.op.Load()), Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) setCounts(id int, counts map[string]float64) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Counts = counts
	t.mu.Unlock()
}

// snapshot reads the per-op counters, keyed by the per-layer metric each
// one's delta across a sync is reported as.
func (t *tracer) snapshot() map[string]float64 {
	return map[string]float64{
		"repo.fetch_calls_per_sync": float64(t.fetchCalls.Load()),
		"repo.dials_per_sync":       float64(t.dials.Load()),
		"repo.list_per_sync":        float64(t.list.Load()),
		"repo.stat_per_sync":        float64(t.stat.Load()),
		"repo.get_per_sync":         float64(t.get.Load()),
		"repo.bytes_in_per_sync":    float64(t.bytesIn.Load()),
		"repo.bytes_out_per_sync":   float64(t.bytesOut.Load()),
	}
}

func raise(peak *atomic.Int64, v int64) {
	for {
		p := peak.Load()
		if v <= p || peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// union is the total time covered by at least one of the spans: the wall
// time during which any of them was in flight.
func union(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	for i, s := range spans {
		if i == 0 || s.Start > end {
			total += s.End - s.Start
			end = s.End
		} else if s.End > end {
			total += s.End - end
			end = s.End
		}
	}
	return time.Duration(total)
}

// spanKey carries the causing span through a context, from the fetch
// decorator to the dial hook beneath it.
type spanKey struct{}

// tracedFetcher decorates *repo.Client with a repo.fetch span per call. It
// forwards SyncIncremental and Stats as well as FetchAll: rp type-asserts
// its fetcher for both, and a decorator that hid them would make the traced
// run a different program (full fetches, no degradation counters).
type tracedFetcher struct {
	inner *repo.Client
	tr    *tracer
}

var (
	_ rp.IncrementalFetcher  = (*tracedFetcher)(nil)
	_ rp.DegradationReporter = (*tracedFetcher)(nil)
)

func (f *tracedFetcher) enter(ctx context.Context) (context.Context, int) {
	f.tr.fetchCalls.Add(1)
	raise(&f.tr.peakInflight, f.tr.inflight.Add(1))
	raise(&f.tr.peakGoroutines, int64(runtime.NumGoroutine()))
	id := f.tr.begin("repo.fetch", int(f.tr.cur.Load()))
	return context.WithValue(ctx, spanKey{}, id), id
}

func (f *tracedFetcher) leave(id int) {
	f.tr.end(id)
	f.tr.inflight.Add(-1)
}

func (f *tracedFetcher) FetchAll(ctx context.Context, uri repo.URI) (map[string][]byte, error) {
	ctx, id := f.enter(ctx)
	defer f.leave(id)
	return f.inner.FetchAll(ctx, uri)
}

func (f *tracedFetcher) SyncIncremental(ctx context.Context, uri repo.URI, prev map[string][]byte) (*repo.SyncResult, error) {
	ctx, id := f.enter(ctx)
	defer f.leave(id)
	return f.inner.SyncIncremental(ctx, uri, prev)
}

func (f *tracedFetcher) Stats() repo.DegradationStats { return f.inner.Stats() }

// dialer returns the repo.Client.Dial hook: every publication point is
// reached at addr, and while tracing each connection is wrapped to count
// and time what crosses it.
func dialer(addr string, tr *tracer) func(ctx context.Context, network, _ string) (net.Conn, error) {
	return func(ctx context.Context, network, _ string) (net.Conn, error) {
		var d net.Dialer
		if !tr.active() {
			return d.DialContext(ctx, network, addr)
		}
		parent, _ := ctx.Value(spanKey{}).(int)
		id := tr.begin("repo.dial", parent)
		conn, err := d.DialContext(ctx, network, addr)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		tr.dials.Add(1)
		raise(&tr.peakFDs, tr.fds.Add(1))
		return &countingConn{Conn: conn, tr: tr, parent: parent}, nil
	}
}

// countingConn counts requests and bytes on one client connection and
// records a span per request, from the request's write to the first byte
// of its reply. It only forwards: deadlines stay the caller's to arm
// (repo.pointConn arms one before every exchange).
type countingConn struct {
	net.Conn
	tr     *tracer
	parent int
	req    int // open request span; one goroutine drives a connection
	closed atomic.Bool
}

func (c *countingConn) Write(p []byte) (int, error) {
	if len(p) > 0 {
		name := ""
		switch p[0] {
		case 'L':
			c.tr.list.Add(1)
			name = "repo.list"
		case 'S':
			c.tr.stat.Add(1)
			name = "repo.stat"
		case 'G':
			c.tr.get.Add(1)
			name = "repo.get"
		}
		if name != "" {
			c.req = c.tr.begin(name, c.parent)
		}
	}
	//lint:ignore deadlinebeforeio forwarding wrapper: repo.pointConn arms the deadline on this conn before every exchange
	n, err := c.Conn.Write(p)
	c.tr.bytesOut.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	//lint:ignore deadlinebeforeio forwarding wrapper: repo.pointConn arms the deadline on this conn before every exchange
	n, err := c.Conn.Read(p)
	c.tr.end(c.req)
	c.req = 0
	c.tr.bytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Close() error {
	// Close can be called twice (pointConn.drop and the ctx watcher).
	if c.closed.CompareAndSwap(false, true) {
		c.tr.fds.Add(-1)
	}
	return c.Conn.Close()
}
