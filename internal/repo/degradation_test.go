package repo

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// fastRetry is a retry policy tuned for tests: deterministic timing, no
// jitter, millisecond backoff.
func fastRetry(maxRetries int) RetryPolicy {
	return RetryPolicy{MaxRetries: maxRetries, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Jitter: -1}
}

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreakerSet(BreakerConfig{
		FailureThreshold: 3,
		Cooldown:         time.Minute,
		Clock:            func() time.Time { return now },
	})
	const key = "rsynclite://h:1/p"

	if err := b.Allow(key); err != nil {
		t.Fatalf("closed breaker must allow: %v", err)
	}
	b.Failure(key)
	b.Failure(key)
	if got := b.State(key); got != BreakerClosed {
		t.Fatalf("below threshold: state = %v", got)
	}
	b.Failure(key) // third consecutive failure trips it
	if got := b.State(key); got != BreakerOpen {
		t.Fatalf("at threshold: state = %v", got)
	}
	if b.Trips() != 1 {
		t.Errorf("trips = %d, want 1", b.Trips())
	}
	if err := b.Allow(key); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker must fast-fail, got %v", err)
	}
	if b.FastFails() != 1 {
		t.Errorf("fastFails = %d, want 1", b.FastFails())
	}

	// Cooldown elapses: exactly one half-open probe goes through.
	now = now.Add(61 * time.Second)
	if err := b.Allow(key); err != nil {
		t.Fatalf("post-cooldown probe must be allowed: %v", err)
	}
	if got := b.State(key); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	if err := b.Allow(key); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("second concurrent probe must be refused")
	}
	b.Failure(key) // probe fails: re-open, new cooldown
	if got := b.State(key); got != BreakerOpen {
		t.Fatalf("failed probe should re-open, state = %v", got)
	}
	if b.Trips() != 2 {
		t.Errorf("trips = %d, want 2", b.Trips())
	}

	// Second cooldown, successful probe: closed again.
	now = now.Add(61 * time.Second)
	if err := b.Allow(key); err != nil {
		t.Fatalf("probe after re-open: %v", err)
	}
	b.Success(key)
	if got := b.State(key); got != BreakerClosed {
		t.Fatalf("successful probe should close, state = %v", got)
	}
	if err := b.Allow(key); err != nil {
		t.Errorf("closed again: %v", err)
	}

	// Unknown keys and state strings.
	if b.State("never-seen") != BreakerClosed {
		t.Error("unknown key should read closed")
	}
	for _, s := range []BreakerState{BreakerClosed, BreakerOpen, BreakerHalfOpen} {
		if s.String() == "" {
			t.Errorf("state %d has empty string", s)
		}
	}
}

func TestBreakerNilSetIsNoop(t *testing.T) {
	var b *BreakerSet
	if err := b.Allow("x"); err != nil {
		t.Fatal("nil set must allow")
	}
	b.Success("x")
	b.Failure("x")
	b.forget("x")
	if b.State("x") != BreakerClosed || b.Trips() != 0 || b.FastFails() != 0 {
		t.Error("nil set must read as empty")
	}
}

func TestFaultRateRetryConvergence(t *testing.T) {
	// An intermittent point failing 2 of every 3 requests: a retrying client
	// converges to the exact same bytes a healthy fetch yields, and the
	// retry count is exact — degradation observable, results unchanged.
	files := map[string][]byte{
		"a.cer": []byte("certificate a"),
		"b.roa": []byte("roa b"),
		"c.mft": []byte("manifest c"),
	}
	uri, _, faults := startTestServer(t, files)
	faults.FailRate("", 2, 3)
	c := &Client{Timeout: 2 * time.Second, Retry: fastRetry(3)}
	got, err := c.FetchAll(context.Background(), uri)
	if err != nil {
		t.Fatalf("flaky fetch should converge: %v", err)
	}
	for name, want := range files {
		if !bytes.Equal(got[name], want) {
			t.Errorf("%s mismatch through faults", name)
		}
	}
	// LIST + 3 GETs, each needing attempts F,F,S: exactly 2 retries apiece.
	if retries := c.Stats().Retries; retries != 8 {
		t.Errorf("retries = %d, want 8", retries)
	}
}

func TestFaultRateExhaustionFails(t *testing.T) {
	uri, _, faults := startTestServer(t, map[string][]byte{"x.roa": []byte("x")})
	faults.FailRate("", 1, 1) // every request fails
	c := &Client{Timeout: time.Second, Retry: fastRetry(2)}
	if _, err := c.FetchAll(context.Background(), uri); err == nil {
		t.Fatal("total failure must surface after retries are exhausted")
	}
	if retries := c.Stats().Retries; retries != 2 {
		t.Errorf("retries = %d, want 2", retries)
	}
}

func TestBreakerTripsOnDeadPoint(t *testing.T) {
	uri, _, faults := startTestServer(t, map[string][]byte{"a": []byte("x")})
	faults.Refuse(true)
	c := &Client{
		Timeout:  time.Second,
		Retry:    fastRetry(10),
		Breakers: NewBreakerSet(BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour}),
	}
	_, err := c.FetchAll(context.Background(), uri)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("dead point should trip the breaker before retries run out, got %v", err)
	}
	st := c.Stats()
	if st.BreakerTrips != 1 {
		t.Errorf("trips = %d, want 1", st.BreakerTrips)
	}
	if st.Retries != 3 {
		// Threshold failures, then the open breaker ends the retry loop.
		t.Errorf("retries = %d, want 3", st.Retries)
	}
	if st.BreakerFastFails < 1 {
		t.Errorf("fastFails = %d, want >= 1", st.BreakerFastFails)
	}
	// Subsequent requests fail fast without touching the network.
	start := time.Now()
	if _, err := c.List(context.Background(), uri); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker should fast-fail List, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("fast-fail took %v", elapsed)
	}
}

// TestBreakerTripSkipsRetryBackoff: a retry that the breaker refuses is
// counted but not waited for. A stalled point trips a threshold-1 breaker
// on its first timeout; the retry that failure spends then fails fast on
// the open breaker at once, not after its backoff.
func TestBreakerTripSkipsRetryBackoff(t *testing.T) {
	const backoff = 10 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, conn) // accepted, never answered
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-accepted
		for _, conn := range held {
			conn.Close()
		}
	})
	uri := URI{Host: ln.Addr().String(), Module: "stalled"}
	c := &Client{
		Timeout:  50 * time.Millisecond,
		Retry:    RetryPolicy{MaxRetries: 3, BaseDelay: backoff, MaxDelay: backoff, Jitter: -1},
		Breakers: NewBreakerSet(BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour}),
	}
	start := time.Now()
	_, err = c.FetchAll(context.Background(), uri)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("stalled point behind a threshold-1 breaker: got %v, want ErrCircuitOpen", err)
	}
	if elapsed >= backoff/4 {
		t.Errorf("fetch took %v: the refused retry waited out its %v backoff", elapsed, backoff)
	}
	st := c.Stats()
	if st.Retries != 1 || st.BreakerTrips != 1 || st.BreakerFastFails != 1 {
		t.Errorf("retries / trips / fast-fails = %d / %d / %d, want 1 / 1 / 1", st.Retries, st.BreakerTrips, st.BreakerFastFails)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	uri, _, faults := startTestServer(t, map[string][]byte{"a": []byte("alive")})
	faults.Refuse(true)
	c := &Client{
		Timeout:  time.Second,
		Retry:    fastRetry(5),
		Breakers: NewBreakerSet(BreakerConfig{FailureThreshold: 2, Cooldown: 50 * time.Millisecond}),
	}
	if _, err := c.FetchAll(context.Background(), uri); err == nil {
		t.Fatal("refused point must fail")
	}
	if c.Breakers.State(uri.String()) != BreakerOpen {
		t.Fatal("breaker should be open")
	}
	// The repository heals; after the cooldown one probe succeeds and the
	// breaker closes — no operator intervention needed.
	faults.Refuse(false)
	time.Sleep(60 * time.Millisecond)
	got, err := c.FetchAll(context.Background(), uri)
	if err != nil || string(got["a"]) != "alive" {
		t.Fatalf("recovered point should serve again: %v", err)
	}
	if c.Breakers.State(uri.String()) != BreakerClosed {
		t.Error("successful probe should close the breaker")
	}
	if c.Stats().BreakerTrips != 1 {
		t.Errorf("trips = %d, want 1", c.Stats().BreakerTrips)
	}
}

func TestBreakerDefeatsSlowLoris(t *testing.T) {
	// A slow-loris repository (alive, trickling one byte per interval) must
	// cost the client a couple of request timeouts, not an unbounded stall:
	// the per-request deadline converts the trickle into failures and the
	// breaker stops further attempts.
	uri, _, faults := startTestServer(t, map[string][]byte{
		"big.roa": bytes.Repeat([]byte("x"), 4096),
	})
	faults.SetSlowLoris(100 * time.Millisecond) // ~7 minutes to serve 4KB
	c := &Client{
		Timeout:  150 * time.Millisecond,
		Retry:    fastRetry(5),
		Breakers: NewBreakerSet(BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour}),
	}
	start := time.Now()
	_, err := c.FetchAll(context.Background(), uri)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("slow-loris fetch must fail")
	}
	if c.Stats().BreakerTrips < 1 {
		t.Error("slow-loris should trip the breaker")
	}
	if elapsed > 5*time.Second {
		t.Errorf("fetch stalled %v; the deadline+breaker should bound it", elapsed)
	}
}

func TestFaultTruncatedBody(t *testing.T) {
	content := []byte("this body will be cut in half mid-transfer by the fault plan")
	uri, _, faults := startTestServer(t, map[string][]byte{"torn.roa": content})
	faults.Truncate("torn.roa")
	c := &Client{Timeout: time.Second, Retry: fastRetry(2)}
	if _, err := c.Get(context.Background(), uri, "torn.roa"); err == nil {
		t.Fatal("truncated transfer must fail, not yield partial bytes")
	}
	if retries := c.Stats().Retries; retries != 2 {
		t.Errorf("persistent truncation should burn all retries, got %d", retries)
	}
	faults.Restore("torn.roa")
	got, err := c.Get(context.Background(), uri, "torn.roa")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("restored object should fetch cleanly: %v", err)
	}
}

func TestFaultScriptedSchedule(t *testing.T) {
	// "Drop the first four requests, then recover": the retrying client
	// rides through the scripted outage with exactly four retries.
	files := map[string][]byte{"a.cer": []byte("a"), "b.roa": []byte("b")}
	uri, _, faults := startTestServer(t, files)
	faults.SetScript(func(requestN int) FaultAction {
		if requestN <= 4 {
			return ActDropConn
		}
		return ActNone
	})
	c := &Client{Timeout: time.Second, Retry: fastRetry(5)}
	got, err := c.FetchAll(context.Background(), uri)
	if err != nil {
		t.Fatalf("scripted outage should converge: %v", err)
	}
	for name, want := range files {
		if !bytes.Equal(got[name], want) {
			t.Errorf("%s mismatch", name)
		}
	}
	if retries := c.Stats().Retries; retries != 4 {
		t.Errorf("retries = %d, want 4", retries)
	}
}

func TestFaultScriptedErrIsPermanent(t *testing.T) {
	uri, _, faults := startTestServer(t, map[string][]byte{"a": []byte("x")})
	faults.SetScript(func(int) FaultAction { return ActErr })
	c := &Client{Timeout: time.Second, Retry: fastRetry(3)}
	_, err := c.Get(context.Background(), uri, "a")
	if err == nil {
		t.Fatal("scripted ERR must fail the request")
	}
	if Retryable(err) {
		t.Error("protocol-level ERR must be classified permanent")
	}
	if retries := c.Stats().Retries; retries != 0 {
		t.Errorf("permanent errors must not be retried, got %d retries", retries)
	}
}

func TestFaultPerObjectDelayIsolated(t *testing.T) {
	// One slow object must not stall the rest of the fetch: the per-request
	// deadline fails it while other connections keep fetching.
	uri, _, faults := startTestServer(t, map[string][]byte{
		"a.cer":    []byte("fast a"),
		"slow.roa": []byte("slow"),
		"z.mft":    []byte("fast z"),
	})
	faults.DelayObject("slow.roa", 500*time.Millisecond)
	c := &Client{Timeout: 100 * time.Millisecond, Retry: fastRetry(1), Concurrency: 2}
	start := time.Now()
	got, err := c.FetchAll(context.Background(), uri)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("the slow object should be reported failed")
	}
	if string(got["a.cer"]) != "fast a" || string(got["z.mft"]) != "fast z" {
		t.Errorf("fast objects should be fetched despite the slow one; got %d objects", len(got))
	}
	if _, ok := got["slow.roa"]; ok {
		t.Error("slow object should have timed out")
	}
	if elapsed > 3*time.Second {
		t.Errorf("fetch took %v; one slow object must not dominate", elapsed)
	}
	// Clearing the delay heals the fetch.
	faults.DelayObject("slow.roa", 0)
	if _, err := c.FetchAll(context.Background(), uri); err != nil {
		t.Errorf("healed fetch: %v", err)
	}
}

func TestFaultSlowLorisPromptCancel(t *testing.T) {
	// Context cancellation must interrupt a read blocked on a trickling
	// server immediately — not wait out the per-request deadline.
	uri, _, faults := startTestServer(t, map[string][]byte{
		"big.roa": bytes.Repeat([]byte("x"), 2048),
	})
	faults.SetSlowLoris(100 * time.Millisecond)
	c := &Client{Timeout: 30 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Get(ctx, uri, "big.roa")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("canceled fetch must fail")
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v to take effect", elapsed)
	}
}

func TestSyncIncrementalFaultRetries(t *testing.T) {
	files := map[string][]byte{
		"a.cer": []byte("certificate a"),
		"b.roa": []byte("roa b"),
		"c.mft": []byte("manifest c"),
	}
	uri, store, faults := startTestServer(t, files)
	c := &Client{Timeout: time.Second, Retry: fastRetry(2)}
	ctx := context.Background()
	cold, err := c.SyncIncremental(ctx, uri, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every other request fails: the delta sync still reuses what it holds
	// and downloads the one object that changed.
	store.Put("b.roa", []byte("ROA B"))
	faults.FailRate("", 1, 2)
	before := c.Stats().Retries
	warm, err := c.SyncIncremental(ctx, uri, cold.Files)
	if err != nil {
		t.Fatalf("flaky delta sync should converge: %v", err)
	}
	if warm.Reused != 2 || warm.Downloaded != 1 {
		t.Errorf("warm sync: %+v", warm)
	}
	// LIST + 1 GET, each failing exactly once before succeeding.
	if d := c.Stats().Retries - before; d != 2 {
		t.Errorf("retries = %d, want 2", d)
	}
}

func TestSyncIncrementalFaultExhaustion(t *testing.T) {
	uri, _, faults := startTestServer(t, map[string][]byte{"x.roa": []byte("x")})
	c := &Client{Timeout: time.Second, Retry: fastRetry(1)}
	ctx := context.Background()
	cold, err := c.SyncIncremental(ctx, uri, nil)
	if err != nil {
		t.Fatal(err)
	}
	faults.FailRate("", 1, 1)
	if _, err := c.SyncIncremental(ctx, uri, cold.Files); err == nil {
		t.Fatal("a dead point must fail the incremental sync so the caller can fall back")
	}
	faults.Restore("")
	res, err := c.SyncIncremental(ctx, uri, cold.Files)
	if err != nil || res.Reused != 1 {
		t.Fatalf("healed point should sync again: %v %+v", err, res)
	}
}

func TestSyncIncrementalBreakerFastFail(t *testing.T) {
	uri, _, faults := startTestServer(t, map[string][]byte{"x.roa": []byte("x")})
	faults.Refuse(true)
	c := &Client{
		Timeout:  time.Second,
		Retry:    fastRetry(5),
		Breakers: NewBreakerSet(BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour}),
	}
	if _, err := c.SyncIncremental(context.Background(), uri, nil); err == nil {
		t.Fatal("refused point must fail")
	}
	if _, err := c.SyncIncremental(context.Background(), uri, nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("second sync should fast-fail on the open breaker")
	}
}

func TestDegradationRetryPolicyDelays(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Jitter: -1}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for attempt, w := range want {
		if got := p.delay(attempt); got != w*time.Millisecond {
			t.Errorf("delay(%d) = %v, want %v", attempt, got, w*time.Millisecond)
		}
	}
	// Jittered delays stay within the configured band.
	pj := RetryPolicy{BaseDelay: 100 * time.Millisecond, Jitter: 0.5}
	for i := 0; i < 50; i++ {
		d := pj.delay(0)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered delay %v outside [50ms,150ms]", d)
		}
	}
	// Classification: transport errors retry, the rest never do.
	if Retryable(nil) {
		t.Error("nil is not retryable")
	}
	if !Retryable(errors.New("read tcp: connection reset")) {
		t.Error("transport errors are retryable")
	}
	for _, err := range []error{
		permanent(errors.New("ERR no")),
		ErrCircuitOpen,
		context.Canceled,
		context.DeadlineExceeded,
	} {
		if Retryable(err) {
			t.Errorf("%v must not be retryable", err)
		}
	}
}
