package repo

import (
	"bufio"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Client fetches publication-point contents over the rsynclite protocol.
// The zero Client uses sane defaults: 10s per request, no retries, no
// circuit breaking — one transport fault fails the affected operation, as a
// maximally brittle relying party would experience it. Production relying
// parties set Retry and Breakers so that flaky repositories converge and
// dead ones fail fast (see internal/rp for the last-known-good layer above).
type Client struct {
	// Timeout bounds each request/response exchange (default 10s): a dial,
	// the write of one window of pipelined request lines, or the wait for
	// and transfer of one reply. It is re-armed for every reply, so it is
	// a per-request deadline — never window × Timeout — and one slow object
	// cannot starve the rest of a fetch. A whole FetchAll or SyncIncremental
	// call, retries included, is bounded by 10 × Timeout.
	Timeout time.Duration
	// Dial overrides the dialer: the seam where a URI's host name becomes a
	// peer. rpkirisk.ClientFor and the benchmark hang on it to reach every
	// publication point of a world at one listener, whatever host the
	// certificates name; tests hang wire recorders on it. The client learns
	// which peer a host reached from the connection Dial returns (its
	// RemoteAddr), never from addr.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
	// Concurrency is the number of parallel connections FetchAll spreads
	// its GETs across (default 1), the first being the one that carried the
	// LIST. Each connection is reused for its whole shard of objects — the
	// per-object cost is one pipelined request/response, not a dial.
	// Results are merged deterministically.
	Concurrency int
	// Retry governs per-request retries of transport failures.
	Retry RetryPolicy
	// Breakers, when set, fail requests to tripped publication points fast
	// instead of dialing into a dead or slow-loris repository. May be
	// shared between Clients.
	Breakers *BreakerSet

	// retries counts request attempts that were retried after a transport
	// failure (exact; exposed via Stats).
	retries atomic.Int64
	// fetchedBytes counts object content bytes received (exposed at scrape
	// time by Instrument).
	fetchedBytes atomic.Int64
	// dials counts connections dialed, reuses the fetches served on a parked
	// connection instead, peerMoves the dials that reached another peer than
	// the host's last one, and requests the request lines written, per verb
	// (all exposed at scrape time by Instrument).
	dials     atomic.Int64
	reuses    atomic.Int64
	peerMoves atomic.Int64
	requests  [len(verbs)]atomic.Int64
	// listingMismatches counts GET replies that were not the object the
	// point's listing promised — a body of another digest, or no well-formed
	// reply at all (exposed at scrape time by Instrument).
	listingMismatches atomic.Int64
	// feedSkips counts the points returned unchanged on a VERSIONS feed's word,
	// feedLies the audits that found one's word false (feed.go; both exposed at
	// scrape time by Instrument).
	feedSkips atomic.Int64
	feedLies  atomic.Int64
	// rec receives retry events when the client is instrumented (nil
	// otherwise). Set once by Instrument before the client serves requests.
	rec *obs.FlightRecorder

	// mu guards the connection-reuse state (pool.go). It is a leaf: never
	// held across I/O, a Breakers call or a Close.
	mu sync.Mutex
	// peers holds one value per peer address real dials reached, until no
	// host proof and no memo names it (pool.go). guarded by mu.
	peers map[string]*peer
	// hosts remembers, per URI host, the peer its last real dial reached and
	// how many fetches have trusted that since. guarded by mu.
	hosts map[string]hostPeer
	// idle holds the parked connections, oldest first, at most poolSize.
	// guarded by mu.
	idle []idleConn
	// points remembers, per point (by URI), the snapshot SyncIncremental last
	// returned under WithPoll and the token its listing carried, until Forget
	// (feed.go). guarded by mu.
	points map[string]pointMemo
	// noReuse is the test hook that forces the pool empty: nothing is parked,
	// so every fetch dials. Set before the client serves requests.
	noReuse bool
}

// DegradationStats counts the resilience events a Client has observed since
// creation; deltas across a sync give exact per-sync counters.
type DegradationStats struct {
	// Retries counts request attempts repeated after a transport failure.
	Retries int64
	// BreakerTrips counts circuit-breaker transitions to open.
	BreakerTrips int64
	// BreakerFastFails counts requests refused while a breaker was open.
	BreakerFastFails int64
}

// Stats snapshots the client's degradation counters.
func (c *Client) Stats() DegradationStats {
	if c == nil {
		return DegradationStats{}
	}
	return DegradationStats{
		Retries:          c.retries.Load(),
		BreakerTrips:     c.Breakers.Trips(),
		BreakerFastFails: c.Breakers.FastFails(),
	}
}

func (c *Client) concurrency() int {
	if c == nil || c.Concurrency < 1 {
		return 1
	}
	return c.Concurrency
}

func (c *Client) timeout() time.Duration {
	if c == nil || c.Timeout == 0 {
		return 10 * time.Second
	}
	return c.Timeout
}

func (c *Client) syncTimeout() time.Duration {
	return 10 * c.timeout()
}

func (c *Client) dial(ctx context.Context, addr string) (net.Conn, error) {
	if c != nil && c.Dial != nil {
		return c.Dial(ctx, "tcp", addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// verb is one of the protocol's three requests.
type verb uint8

const (
	verbList verb = iota
	verbGet
	verbVersions
)

// verbs holds each verb's wire spelling.
var verbs = [...]string{verbList: "LIST", verbGet: "GET", verbVersions: "VERSIONS"}

// pipelineWindow is the number of request lines written before their
// replies are read. A new window is written only after the previous one is
// fully read, and 64 lines (≈5 KB) fit the socket buffers, so the client never
// blocks in Write while the server blocks writing replies nobody reads; should
// both ever block (absurd names, tiny buffers) the armed deadline ends it.
const pipelineWindow = 64

// pointConn is one fetch's connection to a publication point, with
// per-exchange deadlines, breaker gating at every checkout or (re)dial, and
// retry with exponential backoff on transport failures. Context cancellation
// closes the live connection immediately, so a sync aborts promptly even
// mid-read. The fetch owns the connection exclusively — nothing is
// multiplexed — and hands it back through release.
type pointConn struct {
	c    *Client
	uri  URI
	key  string // breaker key: uri.String(), rendered once
	conn net.Conn
	r    *bufio.Reader
	peer *peer
	stop func() bool // cancels the ctx→Close watcher
	// failed records a transport failure on this fetch: what follows dials,
	// it does not try another parked connection.
	failed bool
	// dirty records a reply the client could not take at its word (malformed,
	// or contradicting the listing): the stream is no longer known to sit
	// between two exchanges, so the connection is never parked.
	dirty bool
}

func (c *Client) pointConn(uri URI) *pointConn {
	return &pointConn{c: c, uri: uri, key: uri.String()}
}

// deadline is the per-exchange deadline: Timeout from now, clipped to the
// context's overall deadline.
func (c *Client) deadline(ctx context.Context) time.Time {
	d := time.Now().Add(c.timeout())
	if dl, ok := ctx.Deadline(); ok && dl.Before(d) {
		d = dl
	}
	return d
}

// ensure gives the fetch a connection if none is live: a parked one to the
// peer the host is known to reach, else a dial. The circuit breaker is
// consulted first either way: every transport failure drops the connection,
// so gating here gates exactly the failure paths, and an open breaker costs
// neither a dial nor a checkout.
func (pc *pointConn) ensure(ctx context.Context) error {
	if pc.conn != nil {
		return nil
	}
	if err := pc.c.Breakers.Allow(pc.key); err != nil {
		return err
	}
	var ic idleConn
	if !pc.failed {
		ic = pc.c.checkout(pc.uri.Host)
	}
	ic, err := pc.c.open(ctx, pc.uri.Host, ic)
	if err != nil {
		pc.c.Breakers.Failure(pc.key)
		return err
	}
	pc.conn, pc.r, pc.peer = ic.conn, ic.r, ic.peer
	// A canceled context must interrupt a blocked read, not wait out the
	// per-exchange deadline.
	pc.stop = context.AfterFunc(ctx, func() { _ = ic.conn.Close() })
	return nil
}

// open readies a connection to host for one owner: ic if it holds a parked
// one, a dial otherwise — a real dial, so what it reached is learnt. Either
// way a deadline is armed before anything wraps or touches the conn: no path
// can do unbounded I/O on it, and a conn that refuses its deadline is
// discarded instead of trusted.
func (c *Client) open(ctx context.Context, host string, ic idleConn) (idleConn, error) {
	parked := ic.conn != nil
	if !parked {
		c.dials.Add(1)
		dctx, cancel := context.WithTimeout(ctx, c.timeout())
		defer cancel()
		var err error
		if ic.conn, err = c.dial(dctx, host); err != nil {
			return idleConn{}, fmt.Errorf("repo: dial %s: %w", host, err)
		}
	}
	if err := ic.conn.SetDeadline(c.deadline(ctx)); err != nil {
		_ = ic.conn.Close()
		return idleConn{}, fmt.Errorf("repo: arming deadline on %s: %w", host, err)
	}
	if !parked {
		ic.r, ic.peer = bufio.NewReader(ic.conn), c.learn(host, ic.conn.RemoteAddr())
	}
	return ic, nil
}

// drop closes and forgets the connection.
func (pc *pointConn) drop() {
	if pc.stop != nil {
		pc.stop()
		pc.stop = nil
	}
	if pc.conn != nil {
		_ = pc.conn.Close()
		pc.conn = nil
		pc.r = nil
	}
}

// release ends the fetch's use of its connection: parked for the next fetch if
// it settles clean (pool.go), closed otherwise.
func (pc *pointConn) release() {
	if pc.conn != nil {
		pc.c.settle(pc.peer, pc.conn, pc.r, pc.stop, !pc.dirty)
		pc.conn, pc.r, pc.stop = nil, nil, nil
	}
}

// pipeline sends one request of verb v per name — request lines written a
// window at a time, each window's replies read back in request order by read
// — and returns how many requests were answered. read returns nil, a
// permanent error (the server answered and said no: the request counts as
// answered, the connection is kept, and what the rejection means is read's to
// record) or a transport error. A transport failure drops the connection,
// counts against the breaker and spends one retry of the first unanswered
// request, where a fresh dial resumes after the backoff — at once if the
// breaker is open, whose Allow then decides without a wait; every answered
// request counts a breaker success and resets the retry budget. The
// deadline is armed before the window's write and again before each reply,
// so Timeout bounds one request/response, never a window; a conn that
// refuses a deadline is dropped unused — unbounded I/O is exactly the
// slow-loris surface deadlines close.
// The error is non-nil iff names[answered] could not be asked: retries
// exhausted, or — failing fast, without backoff — circuit open or context dead.
func (pc *pointConn) pipeline(ctx context.Context, v verb, names []string, read func(r *bufio.Reader, name string) error) (int, error) {
	arm := func() error {
		if err := pc.conn.SetDeadline(pc.c.deadline(ctx)); err != nil {
			return fmt.Errorf("repo: arming deadline: %w", err)
		}
		return nil
	}
	policy := pc.c.retryPolicy()
	var window []byte
	answered, attempt := 0, 0
	for answered < len(names) {
		if err := ctx.Err(); err != nil {
			return answered, err
		}
		err := pc.ensure(ctx)
		if err != nil && !Retryable(err) {
			return answered, err
		}
		if err == nil {
			end := min(answered+pipelineWindow, len(names))
			window = window[:0]
			for _, name := range names[answered:end] {
				window = append(append(window, verbs[v]...), ' ')
				window = append(window, pc.uri.Module...)
				if name != "" {
					window = append(append(window, ' '), name...)
				}
				window = append(window, '\n')
			}
			pc.c.requests[v].Add(int64(end - answered))
			if err = arm(); err == nil {
				if _, err = pc.conn.Write(window); err != nil {
					err = fmt.Errorf("repo: sending %s: %w", verbs[v], err)
				}
			}
			for err == nil && answered < end {
				if err = arm(); err != nil {
					break
				}
				if err = read(pc.r, names[answered]); err == nil || !Retryable(err) {
					// Only a well-formed ERR leaves the stream between two
					// exchanges; any other reply the parser gave up on does not.
					if err != nil && !errors.Is(err, errRejected) {
						pc.dirty = true
					}
					pc.c.Breakers.Success(pc.key)
					answered, attempt, err = answered+1, 0, nil
				}
			}
			if err == nil {
				continue
			}
			pc.c.Breakers.Failure(pc.key)
			pc.drop()
			pc.failed = true
		}
		if attempt >= policy.MaxRetries {
			return answered, err
		}
		pc.c.retries.Add(1)
		pc.c.recordRetry(pc.key, err)
		// An open breaker — this failure's trip, most often — refuses the
		// retry before it dials: the backoff would only delay the refusal.
		if pc.c.Breakers.State(pc.key) != BreakerOpen && policy.wait(ctx, attempt) != nil {
			return answered, err
		}
		attempt++
	}
	return answered, nil
}

// one is a pipeline of one request; unlike pipeline it returns the reply
// and, when the server rejected the request, that rejection.
func one[T any](ctx context.Context, pc *pointConn, v verb, name string, read func(*bufio.Reader) (T, error)) (T, error) {
	var reply T
	var verdict error
	if _, err := pc.pipeline(ctx, v, []string{name}, func(r *bufio.Reader, _ string) error {
		reply, verdict = read(r)
		return verdict
	}); err != nil {
		return reply, err
	}
	return reply, verdict
}

func (c *Client) retryPolicy() RetryPolicy {
	if c == nil {
		return RetryPolicy{}
	}
	return c.Retry
}

// listing is a LIST reply: what the point holds, and the token the server
// put on that ("" when it sent none).
type listing struct {
	objects map[string]ObjectInfo
	token   string
}

// readListing parses a LIST reply: exactly the announced number of entries,
// each parsed in place from the reader's buffer. Two entries for one name are
// two claims about one object, so a duplicate is malformed, not last-wins.
func readListing(r *bufio.Reader) (listing, error) {
	header, err := readLine(r)
	if err != nil {
		return listing{}, fmt.Errorf("repo: reading LIST response: %w", err)
	}
	n, token, err := parseListHeader(header)
	if err != nil {
		return listing{}, err
	}
	// The header is a claim, not yet entries: a lying count must not size
	// the map.
	out := make(map[string]ObjectInfo, min(n, 1024))
	for i := 0; i < n; i++ {
		line, err := readLineBytes(r)
		if err != nil {
			return listing{}, fmt.Errorf("repo: reading LIST entry: %w", err)
		}
		name, info, err := parseListEntry(line)
		if err != nil {
			return listing{}, err
		}
		if _, dup := out[name]; dup {
			return listing{}, permanent(fmt.Errorf("repo: duplicate LIST entry %q", name))
		}
		out[name] = info
	}
	return listing{objects: out, token: token}, nil
}

// readList is readListing for callers that want the objects alone.
func readList(r *bufio.Reader) (map[string]ObjectInfo, error) {
	l, err := readListing(r)
	return l.objects, err
}

// readBody parses a GET reply.
func readBody(r *bufio.Reader) ([]byte, error) {
	header, err := readLine(r)
	if err != nil {
		return nil, fmt.Errorf("repo: reading GET response: %w", err)
	}
	size, err := parseOKCount(header, MaxObjectSize)
	if err != nil {
		return nil, err
	}
	content := make([]byte, size)
	if _, err := io.ReadFull(r, content); err != nil {
		return nil, fmt.Errorf("repo: reading object body: %w", err)
	}
	return content, nil
}

// sortedNames returns the keys of a listing in name order.
func sortedNames(names map[string]ObjectInfo) []string {
	ordered := make([]string, 0, len(names))
	for name := range names {
		ordered = append(ordered, name)
	}
	sort.Strings(ordered)
	return ordered
}

// shardResult is one FetchAll connection's share of the module.
type shardResult struct {
	files map[string][]byte
	// errName orders errors canonically: the smallest object name the
	// shard's error applies to.
	errName string
	err     error
}

// FetchAll lists the module and downloads every object, pipelining GETs
// over up to Concurrency reused connections (the first is the one that
// carried the LIST), returning name → content. Objects that fail mid-fetch
// are reported via the error; partial results are returned so a relying
// party can reason about incomplete information (Side Effect 6). The first
// error is chosen deterministically (smallest affected object name)
// regardless of connection scheduling.
func (c *Client) FetchAll(ctx context.Context, uri URI) (map[string][]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.syncTimeout())
	defer cancel()
	first := c.pointConn(uri)
	defer first.release()
	listing, err := one(ctx, first, verbList, "", readList)
	if err != nil {
		return nil, err
	}
	ordered := sortedNames(listing)
	shards := min(c.concurrency(), len(ordered))
	results := make([]shardResult, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		// Round-robin over sorted names: shard s fetches ordered[s::shards].
		mine := make([]string, 0, len(ordered)/shards+1)
		for i := s; i < len(ordered); i += shards {
			mine = append(mine, ordered[i])
		}
		pc := first
		if s > 0 {
			pc = c.pointConn(uri)
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer pc.release()
			results[s] = pc.fetchShard(ctx, mine)
		}(s)
	}
	wg.Wait()

	out := make(map[string][]byte, len(ordered))
	var firstErr error
	var firstErrName string
	for _, res := range results {
		for name, content := range res.files {
			out[name] = content
		}
		if res.err != nil && (firstErr == nil || res.errName < firstErrName) {
			firstErr, firstErrName = res.err, res.errName
		}
	}
	return out, firstErr
}

// fetchShard downloads names (sorted) over the connection. A protocol-level
// ERR for an object is recorded and the shard continues; an exhausted
// transport failure, an open breaker or a dead context aborts the shard with
// its partial results — the point is unhealthy, stop burning attempts on it.
func (pc *pointConn) fetchShard(ctx context.Context, names []string) shardResult {
	res := shardResult{files: make(map[string][]byte, len(names))}
	fail := func(name string, err error) {
		if res.err == nil {
			res.errName, res.err = name, fmt.Errorf("repo: object %q: %w", name, err)
		}
	}
	n, err := pc.pipeline(ctx, verbGet, names, func(r *bufio.Reader, name string) error {
		content, err := readBody(r)
		if err == nil {
			res.files[name] = content
			pc.c.countBytes(len(content))
		} else if !Retryable(err) {
			fail(name, err)
		}
		return err
	})
	if err != nil {
		fail(names[n], err)
	}
	return res
}

// ErrListingMismatch is returned (wrapped) by SyncIncremental when a
// downloaded object does not hash to the digest the point's listing promised.
var ErrListingMismatch = errors.New("served bytes do not match the listed digest")

// SyncResult reports what an incremental sync did.
type SyncResult struct {
	// Files is the complete, post-sync content map.
	Files map[string][]byte
	// Downloaded counts objects actually transferred.
	Downloaded int
	// Reused counts objects kept from the previous snapshot.
	Reused int
	// Removed counts objects that disappeared from the module.
	Removed int
	// Unchanged reports that the module is byte-identical to the previous
	// snapshot: every listed object's size and digest matched the local
	// copy, nothing was downloaded, nothing was removed. False on a first
	// sync (nil prev) even for an empty module.
	Unchanged bool
}

// SyncIncremental brings prev (a previous FetchAll/SyncIncremental result;
// may be nil) up to date, transferring only objects whose listed size or
// digest differs from the held copy — the rsync-style delta mode — and
// returns the new complete snapshot. An unchanged point costs one round
// trip, or — under WithPoll, when prev is the snapshot this client last
// returned for the point and the peer's VERSIONS feed still vouches for the
// token that snapshot was listed under — none: prev itself comes back (feed.go
// has the rules). Every downloaded body must hash to the digest the listing
// promised: a mismatch (the point republished between LIST and GET, or lies)
// fails the sync rather than stitch two states of the point together, and so
// does a GET reply that is neither an object nor a well-formed ERR. Transport
// failures retry per the RetryPolicy (redialing as needed); an exhausted
// failure fails the sync so the caller can fall back to a full fetch or its
// previous snapshot.
func (c *Client) SyncIncremental(ctx context.Context, uri URI, prev map[string][]byte) (*SyncResult, error) {
	pc := c.pointConn(uri)
	// The skip consults neither the breaker nor the pool: Allow has side
	// effects (a counted fast-fail, the half-open probe) that belong to
	// fetches that touch the point.
	p, _ := ctx.Value(pollKey{}).(*poll)
	memo, vouched := c.vouched(ctx, p, pc, prev)
	if vouched && c.trust(pc, memo) {
		c.feedSkips.Add(1)
		return &SyncResult{Files: prev, Reused: len(prev), Unchanged: true}, nil
	}
	ctx, cancel := context.WithTimeout(ctx, c.syncTimeout())
	defer cancel()
	defer pc.release()
	listed, err := one(ctx, pc, verbList, "", readListing)
	if err != nil {
		return nil, err
	}
	listedBy := pc.peer
	res := &SyncResult{Files: make(map[string][]byte, len(listed.objects))}
	var wanted []string
	for name, info := range listed.objects {
		if old, have := prev[name]; have && len(old) == info.Size && sha256.Sum256(old) == info.Hash {
			res.Files[name] = old
			res.Reused++
		} else {
			wanted = append(wanted, name)
		}
	}
	sort.Strings(wanted)

	// Download what is new, resized or digest-changed. A well-formed ERR
	// means the object vanished between LIST and GET: treat it as absent. Any
	// other reply that is not the listed object fails the sync: the stream is
	// no longer one this listing describes.
	var broken error
	n, err := pc.pipeline(ctx, verbGet, wanted, func(r *bufio.Reader, name string) error {
		content, err := readBody(r)
		if err != nil {
			if !Retryable(err) && !errors.Is(err, errRejected) {
				c.listingMismatches.Add(1)
				if broken == nil {
					broken = fmt.Errorf("repo: object %q: %w", name, err)
				}
			}
			return err
		}
		c.countBytes(len(content))
		if sha256.Sum256(content) != listed.objects[name].Hash {
			c.listingMismatches.Add(1)
			pc.dirty = true
			if broken == nil {
				broken = permanent(fmt.Errorf("repo: %w: object %q", ErrListingMismatch, name))
			}
			return nil
		}
		res.Files[name] = content
		res.Downloaded++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("repo: fetching %q: %w", wanted[n], err)
	}
	if broken != nil {
		return nil, broken
	}
	for name := range prev {
		if _, still := res.Files[name]; !still {
			res.Removed++
		}
	}
	// Downloaded == 0 means every listed object matched the previous snapshot
	// by size and digest; Removed == 0 means nothing vanished — together they
	// prove byte-identity with prev.
	res.Unchanged = prev != nil && res.Downloaded == 0 && res.Removed == 0
	if vouched && listed.token == memo.token && !res.Unchanged {
		// This listing was the audit of a skip the feed had offered: same
		// token, other content.
		c.feedLied(pc.key, listedBy)
	}
	if p != nil {
		c.remember(pc.key, pointMemo{files: res.Files, token: listed.token, peer: listedBy})
	}
	return res, nil
}
