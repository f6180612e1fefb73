package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// stepClock is a deterministic injected clock advancing a fixed step per
// read, mirroring how the epoch-pinned tests elsewhere drive rp.
type stepClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func newStepClock(step time.Duration) *stepClock {
	return &stepClock{now: time.Unix(1700000000, 0).UTC(), step: step}
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.now
	c.now = c.now.Add(c.step)
	return t
}

func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("rpki_syncs_total", "Completed syncs.").Add(3)
	r.Gauge("rpki_modules_inflight", "Streaming module slots occupied.").Set(2)
	h := r.Histogram("rpki_sync_duration_seconds", "Sync wall time.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	cv := r.CounterVec("rpki_repo_retries_total", "Repository request retries.", "point")
	cv.With("alpha.example").Add(2)
	cv.With("beta.example").Inc()
	r.GaugeFunc("rpki_rtr_clients", "Connected RTR clients.", func() float64 { return 4 })
	r.CollectGauges("rpki_breaker_state", "Breaker state per point (0 closed, 1 open, 2 half-open).",
		[]string{"point", "state"}, func(emit Emit) {
			emit(1, "beta.example", "open")
			emit(0, "alpha.example", "closed")
		})
	esc := r.CounterVec("rpki_label_escape_check_total", "Label escaping.", "path")
	esc.With("a\\b\"c\nd").Inc()

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Sample reads single series off that same text: whole names only.
	for series, want := range map[string]float64{
		"rpki_syncs_total": 3,
		`rpki_repo_retries_total{point="alpha.example"}`: 2,
		"rpki_rtr_clients": 4,
	} {
		if v, ok := r.Sample(series); !ok || v != want {
			t.Errorf("Sample(%s) = %v, %v; want %v", series, v, ok, want)
		}
	}
	for _, series := range []string{"rpki_syncs", "rpki_repo_retries_total", "# HELP rpki_syncs_total Completed"} {
		if v, ok := r.Sample(series); ok {
			t.Errorf("Sample(%s) = %v, want no such series", series, v)
		}
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b", "boundaries", []float64{1, 2, 5})
	// Prometheus buckets are inclusive upper bounds: an observation equal
	// to a bound lands in that bucket, just above it in the next.
	for _, v := range []float64{1, 2, 5} {
		h.Observe(v)
	}
	h.Observe(1.0000001)
	h.Observe(6)
	want := []uint64{1, 2, 1, 1} // le=1, le=2, le=5, +Inf
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d: got %d want %d", i, got, w)
		}
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 1+2+5+1.0000001+6.0; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// Unsorted bucket input must be sorted at registration.
	h2 := r.Histogram("b2", "unsorted", []float64{5, 1, 2})
	h2.Observe(1.5)
	if got := h2.counts[1].Load(); got != 1 {
		t.Errorf("unsorted buckets: observation of 1.5 in bucket 1, got count %d", got)
	}
}

func TestRegistryIdempotentAndShapeChecked(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Error("re-registration returned a different handle")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("handles do not share state")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("re-registering with a different shape did not panic")
			}
		}()
		r.Gauge("x_total", "x")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid metric name did not panic")
			}
		}()
		r.Counter("bad name", "x")
	}()
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a", "").Inc()
	r.Gauge("b", "").Set(1)
	r.Histogram("c", "", nil).Observe(1)
	r.CounterVec("d", "", "l").With("v").Inc()
	r.GaugeFunc("f", "", nil)
	r.CollectGauges("g", "", nil, nil)
	if err := r.WriteText(io.Discard); err != nil {
		t.Fatal(err)
	}

	var tr *Tracer
	sp := tr.StartTrace("x").Root().Child("y", "m")
	sp.SetDetail("d")
	sp.End()
	tr.StartTrace("x").Finish()
	if tr.Last() != nil {
		t.Error("nil tracer returned a trace")
	}

	var f *FlightRecorder
	f.Record(EventRetry, "m", "d")
	if f.Total() != 0 || f.Snapshot() != nil {
		t.Error("nil recorder retained events")
	}

	var h *Hub
	h.SetHealth(Health{Ready: true})
	if h.HealthSnapshot().Ready {
		t.Error("nil hub reported ready")
	}
	if h.Registry() != nil || h.Recorder() != nil || h.Tracer() != nil {
		t.Error("nil hub returned non-nil components")
	}
}

func TestZeroAllocUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", DurationBuckets())
	vec := r.CounterVec("v_total", "", "point")
	held := vec.With("alpha") // handle held once, as hot paths do
	cases := []struct {
		name string
		fn   func()
	}{
		{"counter.Inc", func() { c.Inc() }},
		{"counter.Add", func() { c.Add(3) }},
		{"gauge.Set", func() { g.Set(7) }},
		{"gauge.Add", func() { g.Add(1) }},
		{"histogram.Observe", func() { h.Observe(0.42) }},
		{"heldVecChild.Inc", func() { held.Inc() }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs per op, want 0", tc.name, allocs)
		}
	}
}

func TestFlightRecorderWraparound(t *testing.T) {
	clock := newStepClock(time.Millisecond)
	f := NewFlightRecorder(8, clock.Now)
	for i := 0; i < 20; i++ {
		f.Recordf(EventRetry, "m", "n=%d", i)
	}
	if f.Total() != 20 {
		t.Fatalf("total = %d, want 20", f.Total())
	}
	events := f.Snapshot()
	if len(events) != 8 {
		t.Fatalf("retained %d events, want 8", len(events))
	}
	for i, e := range events {
		wantSeq := uint64(12 + i)
		if e.Seq != wantSeq {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, wantSeq)
		}
		if want := fmt.Sprintf("n=%d", wantSeq); e.Detail != want {
			t.Errorf("event %d: detail %q, want %q", i, e.Detail, want)
		}
		if i > 0 && !events[i-1].At.Before(e.At) {
			t.Errorf("event %d: timestamps not increasing", i)
		}
	}
}

func TestFlightRecorderConcurrentWriters(t *testing.T) {
	const writers, each = 8, 500
	f := NewFlightRecorder(64, nil)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f.Record(EventBreakerOpen, fmt.Sprintf("w%d", w), "x")
				if i%17 == 0 {
					f.Snapshot() // readers interleave with writers
				}
			}
		}(w)
	}
	wg.Wait()
	if f.Total() != writers*each {
		t.Fatalf("total = %d, want %d", f.Total(), writers*each)
	}
	events := f.Snapshot()
	if len(events) != 64 {
		t.Fatalf("retained %d, want 64", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("seq gap at %d: %d -> %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
	if events[len(events)-1].Seq != writers*each-1 {
		t.Errorf("last seq = %d, want %d", events[len(events)-1].Seq, writers*each-1)
	}
}

func TestTraceSpans(t *testing.T) {
	clock := newStepClock(time.Second)
	tr := NewTracer(clock.Now, 0)
	trace := tr.StartTrace("sync")
	walk := trace.Root().Child("walk", "alpha.example")
	fetch := walk.Child("fetch", "")
	fetch.End()
	walk.SetDetail("reused")
	walk.End()
	trace.Finish()

	if tr.Last() != trace {
		t.Fatal("finished trace not published as last")
	}
	b, err := json.Marshal(trace)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Spans        int `json:"spans"`
		DroppedSpans int `json:"dropped_spans"`
		Root         struct {
			Name       string `json:"name"`
			DurationNs int64  `json:"duration_ns"`
			Children   []struct {
				Name       string `json:"name"`
				Module     string `json:"module"`
				Detail     string `json:"detail"`
				DurationNs int64  `json:"duration_ns"`
			} `json:"children"`
		} `json:"root"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Spans != 3 || got.DroppedSpans != 0 {
		t.Errorf("spans=%d dropped=%d, want 3/0", got.Spans, got.DroppedSpans)
	}
	if got.Root.Name != "sync" || len(got.Root.Children) != 1 {
		t.Fatalf("unexpected root: %+v", got.Root)
	}
	w := got.Root.Children[0]
	if w.Module != "alpha.example" || w.Detail != "reused" {
		t.Errorf("walk span: %+v", w)
	}
	// Step clock: root start t0, walk start t0+1s, fetch start t0+2s,
	// fetch end t0+3s, walk end t0+4s, root end t0+5s.
	if w.DurationNs != (3 * time.Second).Nanoseconds() {
		t.Errorf("walk duration %d, want 3s", w.DurationNs)
	}
	if got.Root.DurationNs != (5 * time.Second).Nanoseconds() {
		t.Errorf("root duration %d, want 5s", got.Root.DurationNs)
	}
}

// TestTraceChildAt: a span opened after the fact keeps the times read while
// the region ran, and one opened ended stays ended.
func TestTraceChildAt(t *testing.T) {
	clock := newStepClock(time.Second)
	trace := NewTracer(clock.Now, 0).StartTrace("sync") // root at t0
	root := trace.Root()
	start, end := root.Now(), root.Now() // t0+1s, t0+2s
	walk := root.ChildAt("walk", "m", start, time.Time{})
	walk.ChildAt("fetch", "m", start, end).End()
	walk.End() // t0+3s
	trace.Finish()
	b, err := json.Marshal(trace)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Root struct {
			Children []struct {
				Start      time.Time `json:"start"`
				DurationNs int64     `json:"duration_ns"`
				Children   []struct {
					Start      time.Time `json:"start"`
					DurationNs int64     `json:"duration_ns"`
				} `json:"children"`
			} `json:"children"`
		} `json:"root"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Root.Children) != 1 || len(got.Root.Children[0].Children) != 1 {
		t.Fatalf("want one walk with one fetch, got %s", b)
	}
	w, f := got.Root.Children[0], got.Root.Children[0].Children[0]
	if !w.Start.Equal(start) || w.DurationNs != (2*time.Second).Nanoseconds() {
		t.Errorf("walk starts %v and lasts %dns, want %v and 2s", w.Start, w.DurationNs, start)
	}
	if !f.Start.Equal(start) || f.DurationNs != time.Second.Nanoseconds() {
		t.Errorf("fetch starts %v and lasts %dns, want %v and 1s", f.Start, f.DurationNs, start)
	}
}

func TestTraceSpanBound(t *testing.T) {
	tr := NewTracer(newStepClock(0).Now, 3)
	trace := tr.StartTrace("sync")
	var kept int
	for i := 0; i < 10; i++ {
		if trace.Root().Child("walk", "m") != nil {
			kept++
		}
	}
	trace.Finish()
	if kept != 2 { // root + 2 children = bound of 3
		t.Errorf("kept %d children, want 2", kept)
	}
	b, _ := json.Marshal(trace)
	if !strings.Contains(string(b), `"dropped_spans":8`) {
		t.Errorf("dropped count missing from %s", b)
	}
}

func TestHubHealthAndReadiness(t *testing.T) {
	clock := newStepClock(time.Second)
	h := NewHub(clock.Now)
	if hs := h.HealthSnapshot(); hs.Ready || hs.State != HealthUnknown {
		t.Fatalf("fresh hub: %+v", hs)
	}
	h.SetHealth(Health{State: HealthDegraded, Detail: "3 diagnostics", Syncs: 1})
	if h.HealthSnapshot().Ready {
		t.Error("degraded-only sync must not set ready")
	}
	h.SetHealth(Health{Ready: true, State: HealthClean, Syncs: 2})
	if !h.HealthSnapshot().Ready {
		t.Error("clean sync must set ready")
	}
	// Readiness is sticky even if a later sync degrades.
	h.SetHealth(Health{State: HealthStale, Detail: "1 stale point", Syncs: 3})
	hs := h.HealthSnapshot()
	if !hs.Ready || hs.State != HealthStale {
		t.Errorf("after stale sync: %+v", hs)
	}
	// Each state transition left a flight-recorder event.
	var changes int
	for _, e := range h.Recorder().Snapshot() {
		if e.Kind == EventHealthChange {
			changes++
		}
	}
	if changes != 3 {
		t.Errorf("recorded %d health changes, want 3", changes)
	}
}

func TestOpsServer(t *testing.T) {
	h := NewHub(nil)
	h.Registry().Counter("rpki_syncs_total", "Completed syncs.").Add(2)
	h.Recorder().Record(EventStaleFallback, "alpha.example", "served LKG")
	trc := h.Tracer().StartTrace("sync")
	trc.Finish()

	srv, err := h.ServeOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "rpki_syncs_total 2") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"state": "unknown"`) {
		t.Errorf("/healthz: code %d body %q", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before first sync: code %d, want 503", code)
	}
	h.SetHealth(Health{Ready: true, State: HealthClean, Syncs: 1})
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, `"state": "clean"`) {
		t.Errorf("/readyz after clean sync: code %d body %q", code, body)
	}
	if code, body := get("/debug/flightrecorder"); code != 200 ||
		!strings.Contains(body, `"kind": "stale-fallback"`) {
		t.Errorf("/debug/flightrecorder: code %d body %q", code, body)
	}
	if code, body := get("/debug/lasttrace"); code != 200 || !strings.Contains(body, `"name": "sync"`) {
		t.Errorf("/debug/lasttrace: code %d body %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline: code %d", code)
	}
}

func TestProfileHelpers(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_ = fmt.Sprintf("%d", i)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(cpu); err != nil || st.Size() == 0 {
		t.Errorf("cpu profile not written: %v", err)
	}
	heap := filepath.Join(dir, "heap.prof")
	if err := WriteHeapProfile(heap); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(heap); err != nil || st.Size() == 0 {
		t.Errorf("heap profile not written: %v", err)
	}
	// Empty paths are explicit no-ops.
	stop, err = StartCPUProfile("")
	if err != nil || stop() != nil {
		t.Error("empty cpu path not a no-op")
	}
	if err := WriteHeapProfile(""); err != nil {
		t.Error("empty heap path not a no-op")
	}
}
