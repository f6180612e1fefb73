package repo

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

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
//     peer that LIST came from — until the caller says the point is gone
//     (Forget; rp does at the end of every completed sync that did not reach
//     it), and not a poll less: the client keeps no clock of its own. A skip
//     needs the caller's prev to be that snapshot — the same names over the
//     same backing arrays — so a caller that fell back to a full fetch, or
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
	peer  *peer
	// skips counts the fetches since that listing that did not ask.
	skips uint32
}

type pollKey struct{}

// poll holds the feeds fetched under one WithPoll context.
type poll struct {
	mu sync.Mutex
	// feeds has one entry per peer asked so far; each Client has peers of its
	// own. guarded by mu.
	feeds map[*peer]*feed
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
// without listing them. No feed outlives the context that fetched it; a memo
// lives until Forget.
func WithPoll(ctx context.Context) context.Context {
	return context.WithValue(ctx, pollKey{}, &poll{feeds: make(map[*peer]*feed)})
}

// tokens returns pr's feed, fetching it on first use; host is a name known
// to reach pr, should the exchange have to dial.
func (p *poll) tokens(ctx context.Context, c *Client, pr *peer, host string) map[string]string {
	p.mu.Lock()
	f := p.feeds[pr]
	if f == nil {
		f = new(feed)
		p.feeds[pr] = f
	}
	p.mu.Unlock()
	f.once.Do(func() { f.tokens = c.fetchFeed(ctx, pr, host) })
	return f.tokens
}

// vouched reports whether the fetch may take prev for the point's current
// content on its peer's word: prev is the snapshot remembered for the point,
// and the peer its host reaches — the one that listed that snapshot — vouches,
// in this poll's feed, for the token it was listed under. It spends nothing
// and touches no breaker; trust does the spending.
func (c *Client) vouched(ctx context.Context, p *poll, pc *pointConn, prev map[string][]byte) (pointMemo, bool) {
	if p == nil {
		return pointMemo{}, false
	}
	c.mu.Lock()
	memo, remembered := c.points[pc.key]
	ask := remembered && c.hosts[pc.uri.Host].peer == memo.peer && memo.peer.points >= 2
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
	if c.trustLocked(pc.uri.Host) == nil {
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
	old, had := c.points[key]
	if memo.token == "" {
		delete(c.points, key)
	} else {
		if c.points == nil {
			c.points = make(map[string]pointMemo)
		}
		c.points[key] = memo
		memo.peer.points++
	}
	if had {
		old.peer.points--
		c.departLocked(old.peer)
	}
}

// Forget drops what the client keeps about the point at uri, once its caller
// knows the point has left the tree: its memo (and its count towards its
// peer's two), its host's peer proof — so the host's next fetch dials for
// real — its peer, if nothing else names that, and its breaker.
func (c *Client) Forget(uri URI) {
	key := uri.String()
	c.remember(key, pointMemo{})
	c.mu.Lock()
	if hp, known := c.hosts[uri.Host]; known {
		delete(c.hosts, uri.Host)
		hp.peer.hosts--
		c.departLocked(hp.peer)
	}
	c.mu.Unlock()
	c.Breakers.forget(key)
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

// feedLied counts an audit that found other content under the token p was
// vouching for, and names the peer in the flight recorder.
func (c *Client) feedLied(key string, p *peer) {
	c.feedLies.Add(1)
	if c.rec != nil {
		c.rec.Recordf(obs.EventFeedLie, key, "peer %s vouched for a token whose listing changed", p.addr)
	}
}

// fetchFeed runs one VERSIONS exchange with p, on a parked connection if
// one is live and else on a dial of host, and returns the reply — nil on any
// failure, and nil unless the connection settles clean (pool.go): a peer that
// says more than the reply, or a context that died under it, is not believed
// for the poll.
func (c *Client) fetchFeed(ctx context.Context, p *peer, host string) map[string]string {
	c.mu.Lock()
	if p.muted > 0 {
		p.muted--
		c.mu.Unlock()
		return nil
	}
	ic := c.takeLocked(p)
	c.mu.Unlock()
	ic, err := c.open(ctx, host, ic)
	if err != nil {
		return nil
	}
	conn := ic.conn
	if ic.peer != p {
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
	if !c.settle(p, conn, ic.r, stop, err == nil) {
		tokens = nil
	}
	if errors.Is(err, errRejected) {
		// The peer does not speak the verb (and hung up, as a server does on
		// any unknown command): one exchange per re-prove period, not per poll.
		c.mu.Lock()
		p.muted = reproveEvery - 1
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
