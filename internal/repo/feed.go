package repo

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// The VERSIONS feed: change discovery in O(changed). A relying party polling
// a hosted world asks 721 points "what do you hold?" to learn that one of them
// changed. VERSIONS asks their common peer once; a point whose token is the
// one its last listing carried is returned as it was, with no round trip.
//
// "Unchanged" is the cheapest lie a repository can tell, so the skip is hedged
// on every side (DESIGN.md §6):
//
//   - What is remembered. Per point fetched under WithPoll, the snapshot
//     SyncIncremental last returned, the token its LIST header carried and the
//     peer that LIST came from — until a whole poll passes that does not fetch
//     the point: what left the tree is neither held nor counted for its peer.
//     A skip needs the caller's prev to be that snapshot — the same names over
//     the same backing arrays — so a caller that fell back to a full fetch, or
//     holds another client's snapshot, is listed as before.
//   - Who is believed. Only the peer the point's host reached on its last real
//     dial, and only about a token that same peer handed out. A peer vouching
//     for a module whose host reaches someone else is never even asked about it.
//   - For how long. A skip spends the host's re-proving budget exactly as a
//     ride on a parked connection does (pool.go), so every reproveEvery-th
//     consult of a host dials for real and reads a full digest listing: the
//     audit. Hosts that carry several points could hand that dial to the same
//     point every time, so a point is also never skipped more than
//     reproveEvery-1 times in a row. An audit that finds other content under
//     the vouched token is counted (rpki_repo_feed_lies_total) and recorded
//     with the peer's address. Above the client, rp's memo epoch still ends at
//     the manifest's nextUpdate.
//   - When it is not worth asking. A peer that served fewer than two of the
//     remembered points is not asked: there VERSIONS is a LIST by another name,
//     and requests, dials and results stay those of a client without the feed.
//     A peer that answers the verb with ERR is not asked again for
//     reproveEvery polls.
//   - What a failure costs. Nothing but the saving: any failure of the
//     exchange is an empty feed for that poll, and so is a reply on a
//     connection that does not settle clean (pool.go) — the rule that decides
//     whether a connection may be parked decides whether its feed is believed.
//     It touches no breaker and no retry counter — those belong to points.
//
// A feed lives in the context WithPoll returns and is fetched at most once per
// peer, by the first fetch that wants it; a Client used without WithPoll lists
// every point and remembers nothing, as before.

// pointMemo is what the client remembers about one point between fetches.
type pointMemo struct {
	// files is the snapshot SyncIncremental last returned for the point.
	files map[string][]byte
	// token is the one the listing behind files carried, peer who sent it.
	token string
	peer  peerID
	// skips counts the fetches since that listing that did not ask.
	skips uint32
	// seen is the newest poll that fetched the point.
	seen uint64
}

type pollKey struct{}

// polls numbers the WithPoll contexts of the process, so that "newer" means
// the same to every client.
var polls atomic.Uint64

// poll holds the feeds fetched under one WithPoll context.
type poll struct {
	id uint64
	mu sync.Mutex
	// feeds has one entry per client and peer asked so far. guarded by mu.
	feeds map[feedKey]*feed
}

type feedKey struct {
	c    *Client
	peer peerID
}

// feed is one peer's VERSIONS reply: module → token, nil when the exchange
// failed or was not worth making. tokens is written inside once.
type feed struct {
	once   sync.Once
	tokens map[string]string
}

// WithPoll scopes one polling pass over many points — one rp.Sync: under the
// returned context SyncIncremental remembers what it returns and may ask each
// peer for its VERSIONS feed, once, and return the points it vouches for
// without listing them. No feed outlives the context that fetched it, and no
// memo the next poll that does not fetch its point.
func WithPoll(ctx context.Context) context.Context {
	return context.WithValue(ctx, pollKey{}, &poll{id: polls.Add(1), feeds: make(map[feedKey]*feed)})
}

// tokens returns peer's feed, fetching it on first use; host is a name known
// to reach peer, should the exchange have to dial.
func (p *poll) tokens(ctx context.Context, c *Client, peer peerID, host string) map[string]string {
	key := feedKey{c: c, peer: peer}
	p.mu.Lock()
	f := p.feeds[key]
	if f == nil {
		f = new(feed)
		p.feeds[key] = f
	}
	p.mu.Unlock()
	f.once.Do(func() { f.tokens = c.fetchFeed(ctx, peer, host) })
	return f.tokens
}

// enterLocked notes that a fetch under p reached the client. The first fetch
// of a newer poll forgets every point the poll before it did not fetch: a
// point that left the tree is not held, nor counted towards its peer's two,
// for longer than that. The caller holds c.mu.
func (c *Client) enterLocked(p *poll) {
	if p.id <= c.poll {
		return
	}
	for key, memo := range c.points {
		if memo.seen < c.poll {
			c.peers[memo.peer].points--
			delete(c.points, key)
		}
	}
	c.poll = p.id
}

// vouched reports whether the fetch may take prev for the point's current
// content on its peer's word: prev is the snapshot remembered for the point,
// and the peer its host reaches — the one that listed that snapshot — vouches,
// in this poll's feed, for the token it was listed under. It notes that the
// poll fetched the point, spends nothing and touches no breaker; trust does
// the spending.
func (c *Client) vouched(ctx context.Context, p *poll, pc *pointConn, prev map[string][]byte) (pointMemo, bool) {
	if p == nil {
		return pointMemo{}, false
	}
	c.mu.Lock()
	c.enterLocked(p)
	memo, remembered := c.points[pc.key]
	if remembered && memo.seen < p.id {
		memo.seen = p.id
		c.points[pc.key] = memo
	}
	hp, known := c.hosts[pc.uri.Host]
	ask := remembered && known && hp.peer == memo.peer && c.peers[memo.peer].points >= 2
	c.mu.Unlock()
	if !ask || prev == nil || !sameSnapshot(prev, memo.files) {
		return pointMemo{}, false
	}
	token, listed := p.tokens(ctx, c, memo.peer, pc.uri.Host)[pc.uri.Module]
	return memo, listed && token == memo.token
}

// trust spends a skip: one fetch of the host's re-proving budget and one of
// the point's own. It refuses when the host's next fetch must dial for real,
// the host no longer reaches the peer that vouched, or the point has gone
// reproveEvery-1 fetches unlisted.
func (c *Client) trust(pc *pointConn, memo pointMemo) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	// memo was read under an earlier hold of the lock: it must still stand.
	now := c.points[pc.key]
	if now.token != memo.token || now.peer != memo.peer || c.hosts[pc.uri.Host].peer != now.peer || now.skips+1 >= reproveEvery {
		return false
	}
	if _, ok := c.trustLocked(pc.uri.Host); !ok {
		return false
	}
	now.skips++
	c.points[pc.key] = now
	return true
}

// remember records what a successful listing of the point returned. A listing
// without a token leaves nothing to vouch for.
func (c *Client) remember(key string, memo pointMemo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, had := c.points[key]; had {
		c.peers[old.peer].points--
	}
	if memo.token == "" {
		delete(c.points, key)
		return
	}
	if c.points == nil {
		c.points = make(map[string]pointMemo)
	}
	c.points[key] = memo
	c.peers[memo.peer].points++
}

// sameSnapshot reports whether a and b are one snapshot: the same names over
// the same backing arrays, the identity rp's retained state already relies on.
func sameSnapshot(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, x := range a {
		y, ok := b[name]
		if !ok || len(x) != len(y) || len(x) > 0 && &x[0] != &y[0] {
			return false
		}
	}
	return true
}

// feedLied counts an audit that found other content under the token peer was
// vouching for, and names the peer in the flight recorder.
func (c *Client) feedLied(key string, peer peerID) {
	c.feedLies.Add(1)
	if c.rec == nil {
		return
	}
	c.mu.Lock()
	addr := c.peers[peer].addr
	c.mu.Unlock()
	c.rec.Recordf(obs.EventFeedLie, key, "peer %s vouched for a token whose listing changed", addr)
}

// fetchFeed runs one VERSIONS exchange with peer, on a parked connection if
// one is live and else on a dial of host, and returns the reply — nil on any
// failure, and nil unless the connection settles clean (pool.go): a peer that
// says more than the reply, or a context that died under it, is not believed
// for the poll.
func (c *Client) fetchFeed(ctx context.Context, peer peerID, host string) map[string]string {
	c.mu.Lock()
	if st := &c.peers[peer]; st.muted > 0 {
		st.muted--
		c.mu.Unlock()
		return nil
	}
	ic := c.takeLocked(peer)
	c.mu.Unlock()
	ic, err := c.open(ctx, host, ic)
	if err != nil {
		return nil
	}
	conn := ic.conn
	if ic.peer != peer {
		// The name moved: whoever answered the dial is not the peer being asked.
		_ = conn.Close()
		return nil
	}
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	c.requests[verbVersions].Add(1)
	// The exchange arms its own deadline, as every pipeline window does after
	// ensure: open's bounded the wrapping of the conn, and deadlinebeforeio
	// holds each function that writes to one to arming it.
	var tokens map[string]string
	if err = conn.SetDeadline(c.deadline(ctx)); err == nil {
		_, err = io.WriteString(conn, verbs[verbVersions]+"\n")
	}
	if err == nil {
		tokens, err = readVersions(ic.r)
	}
	if !c.settle(peer, conn, ic.r, stop, err == nil) {
		tokens = nil
	}
	if errors.Is(err, errRejected) {
		// The peer does not speak the verb (and hung up, as a server does on
		// any unknown command): one exchange per re-prove period, not per poll.
		c.mu.Lock()
		c.peers[peer].muted = reproveEvery - 1
		c.mu.Unlock()
	}
	return tokens
}

// readVersions parses a VERSIONS reply: exactly the announced number of
// "<module> <token>" lines, no module twice.
func readVersions(r *bufio.Reader) (map[string]string, error) {
	header, err := readLine(r)
	if err != nil {
		return nil, fmt.Errorf("repo: reading VERSIONS response: %w", err)
	}
	n, err := parseOKCount(header, maxFeedEntries)
	if err != nil {
		return nil, err
	}
	// As for a listing: a lying count must not size the map.
	out := make(map[string]string, min(n, 1024))
	for i := 0; i < n; i++ {
		line, err := readLineBytes(r)
		if err != nil {
			return nil, fmt.Errorf("repo: reading VERSIONS entry: %w", err)
		}
		moduleB, tokenB, _ := bytes.Cut(line, []byte{' '})
		module, token := string(moduleB), string(tokenB)
		if !validName(module) || !validToken(token) {
			return nil, permanent(fmt.Errorf("repo: malformed VERSIONS entry %q", line))
		}
		if _, dup := out[module]; dup {
			return nil, permanent(fmt.Errorf("repo: duplicate VERSIONS entry %q", module))
		}
		out[module] = token
	}
	return out, nil
}
