package rpkirisk

// Smoke tests for the command-line tools: each binary is built once and
// exercised end to end — including a live pubd → rp → monitor session over
// loopback TCP.

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// buildCommands compiles every cmd/ binary into a shared temp dir.
func buildCommands(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "rpkirisk-bin")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/...")
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = errBuild(string(out))
		}
	})
	if buildErr != nil {
		t.Fatalf("building commands: %v", buildErr)
	}
	return binDir
}

type errBuild string

func (e errBuild) Error() string { return string(e) }

// syncBuffer is a mutex-guarded buffer safe to read while exec's pipe
// copier writes into it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func runCmd(t *testing.T, timeout time.Duration, name string, args ...string) (string, error) {
	t.Helper()
	bin := filepath.Join(buildCommands(t), name)
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	done := make(chan error, 1)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return buf.String(), err
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		<-done
		return buf.String(), errBuild("timeout")
	}
}

func TestCmdExperimentsList(t *testing.T) {
	out, err := runCmd(t, 30*time.Second, "rpki-experiments", "-list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"figure2", "table6", "se7", "ext-suspenders"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestCmdExperimentsRunOne(t *testing.T) {
	out, err := runCmd(t, 60*time.Second, "rpki-experiments", "-run", "table6")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "1/1 experiments passed") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCmdExperimentsMarkdown(t *testing.T) {
	out, err := runCmd(t, 60*time.Second, "rpki-experiments", "-run", "se6", "-format", "markdown")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "## se6") || !strings.Contains(out, "| shape check |") {
		t.Errorf("markdown output:\n%s", out)
	}
}

func TestCmdTree(t *testing.T) {
	out, err := runCmd(t, 60*time.Second, "rpki-tree")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"arin", "sprint", "continental", "cache complete"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree missing %q:\n%s", want, out)
		}
	}
}

func TestCmdWhack(t *testing.T) {
	out, err := runCmd(t, 60*time.Second, "rpki-whack",
		"-manipulator", "sprint", "-holder", "continental", "-roa", "cont-20")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"plan[shrink]", "63.174.24.0/24", "rc-shrink"} {
		if !strings.Contains(out, want) {
			t.Errorf("whack output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdWhackDryRun(t *testing.T) {
	out, err := runCmd(t, 60*time.Second, "rpki-whack", "-method", "revoke", "-dry-run")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "dry run") || !strings.Contains(out, "revoke-subtree") {
		t.Errorf("output:\n%s", out)
	}
}

// TestCmdRPFlagValidation: nonsensical resilience tunings must be rejected
// at startup with a clear error, before the daemon touches the TAL or the
// network — a negative retry count or a zero deadline would silently
// disable a rung of the degradation ladder.
func TestCmdRPFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative-retries", []string{"-max-retries", "-1"}, "-max-retries must be >= 0"},
		{"zero-timeout", []string{"-request-timeout", "0s"}, "-request-timeout must be positive"},
		{"negative-timeout", []string{"-request-timeout", "-3s"}, "-request-timeout must be positive"},
		{"zero-breaker-threshold", []string{"-breaker-threshold", "0"}, "-breaker-threshold must be >= 1"},
		{"negative-breaker-threshold", []string{"-breaker-threshold", "-2"}, "-breaker-threshold must be >= 1"},
		{"zero-breaker-cooldown", []string{"-breaker-cooldown", "0s"}, "-breaker-cooldown must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// -tal points at a nonexistent file: validation must fire first,
			// so the error is about the flag, not the missing TAL.
			args := append([]string{"-tal", filepath.Join(t.TempDir(), "absent.tal")}, tc.args...)
			out, err := runCmd(t, 30*time.Second, "rpki-rp", args...)
			if err == nil {
				t.Fatalf("bad flags accepted; output:\n%s", out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("error should mention %q, got:\n%s", tc.want, out)
			}
		})
	}
}

// startPubd boots rpki-pubd on loopback, waits for its TAL and serving
// line, and returns the server address and TAL path. The process is killed
// on test cleanup.
func startPubd(t *testing.T) (addr, tal string) {
	t.Helper()
	dir := buildCommands(t)
	tal = filepath.Join(t.TempDir(), "arin.tal")
	pubd := exec.Command(filepath.Join(dir, "rpki-pubd"), "-listen", "127.0.0.1:0", "-tal", tal)
	var pubdOut syncBuffer
	pubd.Stdout = &pubdOut
	pubd.Stderr = &pubdOut
	if err := pubd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = pubd.Process.Kill()
		_, _ = pubd.Process.Wait()
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(tal); err == nil {
			line := pubdOut.String()
			if i := strings.Index(line, "points on "); i >= 0 {
				rest := line[i+len("points on "):]
				return strings.Fields(rest)[0], tal
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("pubd never became ready:\n%s", pubdOut.String())
	return "", ""
}

// httpGet fetches a URL and returns status code and body.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts the value of an unlabeled series from a Prometheus
// text exposition body (-1 if absent).
func metricValue(body, name string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
				return v
			}
		}
	}
	return -1
}

// TestCmdRPOpsSurface boots pubd plus a polling relying party with
// -ops-listen and -rtr, waits for two poll cycles, and checks that the
// operator surface exposes live sync, breaker, memo and RTR series along
// with health, readiness, flight-recorder and trace endpoints.
func TestCmdRPOpsSurface(t *testing.T) {
	serverAddr, tal := startPubd(t)
	dir := buildCommands(t)

	rp := exec.Command(filepath.Join(dir, "rpki-rp"),
		"-tal", tal, "-server", serverAddr,
		"-poll", "250ms", "-rtr", "127.0.0.1:0", "-ops-listen", "127.0.0.1:0")
	var rpOut syncBuffer
	rp.Stdout = &rpOut
	rp.Stderr = &rpOut
	if err := rp.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = rp.Process.Kill()
		_, _ = rp.Process.Wait()
	}()

	// Wait for the ops listener to announce itself.
	var opsAddr string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		out := rpOut.String()
		if i := strings.Index(out, "ops server on "); i >= 0 {
			opsAddr = strings.Fields(out[i+len("ops server on "):])[0]
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if opsAddr == "" {
		t.Fatalf("rp never announced its ops server:\n%s", rpOut.String())
	}
	base := "http://" + opsAddr

	// Scrape until at least two poll cycles have completed, then scrape
	// afresh: a scrape reads the module series before the sync count, so the
	// one that first shows two syncs may hold the first sync's modules only.
	var metrics string
	deadline = time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if _, body := httpGet(t, base+"/metrics"); metricValue(body, "rpki_syncs_total") >= 2 {
			_, metrics = httpGet(t, base+"/metrics")
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if metrics == "" {
		t.Fatalf("never saw two completed syncs on /metrics:\n%s", rpOut.String())
	}

	// One series from each instrumented layer must be present and sane.
	for _, want := range []string{
		"rpki_vrps 8",                     // relying party: validated cache
		"rpki_sync_duration_seconds_sum",  // relying party: sync histogram
		"rpki_modules_reused_total",       // module memo
		"rpki_repo_breaker_trips_total 0", // repository client breakers
		"rpki_repo_fetched_bytes_total",   // repository client transport
		"rpki_rtr_serial",                 // RTR cache
		"rpki_last_sync_unixtime",         // staleness anchor
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The steady-state polls against an unchanged world must reuse modules.
	if v := metricValue(metrics, "rpki_modules_reused_total"); v < 1 {
		t.Errorf("rpki_modules_reused_total = %v, want >= 1 after a warm poll", v)
	}

	if code, body := httpGet(t, base+"/healthz"); code != 200 || !strings.Contains(body, `"clean"`) {
		t.Errorf("/healthz = %d %q, want 200 with state clean", code, body)
	}
	if code, _ := httpGet(t, base+"/readyz"); code != 200 {
		t.Errorf("/readyz = %d, want 200 after a clean sync", code)
	}
	if code, body := httpGet(t, base+"/debug/flightrecorder"); code != 200 || !strings.Contains(body, `"total"`) {
		t.Errorf("/debug/flightrecorder = %d %q", code, body)
	}
	if code, body := httpGet(t, base+"/debug/lasttrace"); code != 200 || !strings.Contains(body, `"sync"`) {
		t.Errorf("/debug/lasttrace = %d, want the last sync's span tree, got %q", code, body)
	}
}

// TestCmdPubdRPMonitorSession wires pubd + rp + monitor as real processes.
func TestCmdPubdRPMonitorSession(t *testing.T) {
	dir := buildCommands(t)
	tal := filepath.Join(t.TempDir(), "arin.tal")

	pubd := exec.Command(filepath.Join(dir, "rpki-pubd"), "-listen", "127.0.0.1:0", "-tal", tal)
	var pubdOut syncBuffer
	pubd.Stdout = &pubdOut
	pubd.Stderr = &pubdOut
	if err := pubd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = pubd.Process.Kill()
		_, _ = pubd.Process.Wait()
	}()

	// Wait for the TAL to be written and the serving line to print.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(tal); err == nil {
			line := pubdOut.String()
			if i := strings.Index(line, "points on "); i >= 0 {
				rest := line[i+len("points on "):]
				addr = strings.Fields(rest)[0]
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("pubd never became ready:\n%s", pubdOut.String())
	}

	// One-shot relying-party sync against the live server: pubd builds
	// the world anchored at the wall clock, so validation must succeed
	// completely.
	rpOut, err := runCmd(t, 30*time.Second, "rpki-rp", "-tal", tal, "-server", addr)
	if err != nil {
		t.Fatalf("rp: %v\n%s", err, rpOut)
	}
	if !strings.Contains(rpOut, "cache complete") || !strings.Contains(rpOut, "8 VRPs") {
		t.Errorf("rp output:\n%s", rpOut)
	}

	// Monitor baseline pass.
	monOut, err := runCmd(t, 30*time.Second, "rpki-monitor", "-server", addr, "-once")
	if err != nil {
		t.Fatalf("monitor: %v\n%s", err, monOut)
	}
	if !strings.Contains(monOut, "watching 4 modules") {
		t.Errorf("monitor output:\n%s", monOut)
	}
}
