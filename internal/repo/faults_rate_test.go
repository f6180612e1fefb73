package repo

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// TestFaultBandwidthThrottle: SetBandwidth serves the whole body, slowly —
// unlike slow-loris it makes real progress, so a client with deadline
// headroom succeeds while a tight deadline converts the throttle into
// failures.
func TestFaultBandwidthThrottle(t *testing.T) {
	content := bytes.Repeat([]byte("y"), 400)
	uri, store, faults := startTestServer(t, map[string][]byte{"big.roa": content})
	faults.SetBandwidth(1000) // 100B per 100ms tick: ~400ms for the body

	tight := &Client{Timeout: 120 * time.Millisecond, Retry: fastRetry(0)}
	if _, err := tight.Get(context.Background(), uri, "big.roa"); err == nil {
		t.Fatal("tight deadline must fail under throttling")
	}

	patient := &Client{Timeout: 5 * time.Second, Retry: fastRetry(0)}
	start := time.Now()
	got, err := patient.Get(context.Background(), uri, "big.roa")
	if err != nil {
		t.Fatalf("patient client should ride out the throttle: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("throttled body mismatch")
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Errorf("transfer took %v; throttle should have paced it", elapsed)
	}
	faults.Restore("")
	if limit := faults.decide("GET", "big.roa", store).bandwidth; limit != 0 {
		t.Errorf("Restore left bandwidth = %d", limit)
	}
}

// TestFaultCorruptRate: intermittent corruption cycles deterministically like
// FailRate — request 1 of every 2 serves flipped bits, request 2 is clean.
func TestFaultCorruptRate(t *testing.T) {
	content := []byte("route origin authorization content for corruption cycling")
	uri, _, faults := startTestServer(t, map[string][]byte{"x.roa": content})
	faults.CorruptRate("x.roa", 1, 2)
	c := &Client{Timeout: time.Second, Retry: fastRetry(0)}

	for cycle := 0; cycle < 2; cycle++ {
		bad, err := c.Get(context.Background(), uri, "x.roa")
		if err != nil {
			t.Fatalf("cycle %d corrupt fetch: %v", cycle, err)
		}
		if bytes.Equal(bad, content) {
			t.Fatalf("cycle %d: first request of the cycle should be corrupted", cycle)
		}
		good, err := c.Get(context.Background(), uri, "x.roa")
		if err != nil {
			t.Fatalf("cycle %d clean fetch: %v", cycle, err)
		}
		if !bytes.Equal(good, content) {
			t.Fatalf("cycle %d: second request of the cycle should be clean", cycle)
		}
	}
	faults.Restore("x.roa")
	clean, err := c.Get(context.Background(), uri, "x.roa")
	if err != nil || !bytes.Equal(clean, content) {
		t.Fatalf("Restore should clear the corrupt rate: %v", err)
	}
}
