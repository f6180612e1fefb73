package repo

import (
	"bufio"
	"net"
	"slices"
	"time"
)

// Connection reuse. A fetch owns its connection exclusively from ensure to
// release; release parks a connection whose every exchange completed cleanly,
// and the next fetch of any host known to reach the same peer checks it out
// instead of dialing. Parked connections belong to the peer a real dial
// reached — one *peer per address, never a URI host, which is a name the
// repository chose: 721 names behind one listener share a handful of sockets,
// 721 names behind 721 listeners never share one and behave exactly as without
// a pool. A peer lives while a host proof or a point's memo (feed.go) names
// it; one that leaves takes nothing parked with it, since no fetch can reach
// those connections any more and their timers close them. The rule set (who
// may park, what a reused connection may cost) is in protocol.go's header and
// DESIGN.md §6.
const (
	// poolSize bounds the connections a Client keeps parked, over all peers.
	poolSize = 4
	// poolIdleAge is how long a connection may stay parked before its timer
	// closes it: long enough to carry a sync's next fetch and a poll loop's
	// next sync, far below any server's idle timeout, and the bound within
	// which a discarded Client's sockets are gone.
	poolIdleAge = time.Second
	// reproveEvery bounds how long a host → peer memo is trusted: every
	// reproveEvery-th fetch of a host dials for real, so a name that moved
	// (or was parked on a peer that no longer speaks for it) is noticed
	// within that many fetches.
	reproveEvery = 32
)

// peer is what the client keeps about one peer address real dials reached.
// A fetch in flight may still hold a peer that has left Client.peers: what it
// parks, no later fetch takes, and a memo naming it is never vouched for.
type peer struct {
	// addr is the address real dials reached it at.
	addr string
	// hosts counts the host proofs that name it, points the remembered points
	// whose listing it served (feed.go). guarded by Client.mu.
	hosts, points int
	// muted counts the polls left in which its VERSIONS feed is not asked for,
	// after it answered the verb with ERR. guarded by Client.mu.
	muted uint32
}

// hostPeer is what the client remembers about one URI host.
type hostPeer struct {
	peer *peer
	// fetches counts the fetches served since the last real dial.
	fetches uint32
}

// idleConn is one parked connection: nothing in flight, nothing buffered.
type idleConn struct {
	peer *peer
	conn net.Conn
	r    *bufio.Reader
	// expire closes conn at poolIdleAge. It references the conn alone, so a
	// Client nobody holds any more is garbage at once and its sockets follow
	// within the bound; whoever stops it before it fires owns the conn.
	expire *time.Timer
}

// stagger spreads the first re-proving dials of hosts learnt in one sync over
// the next reproveEvery syncs (FNV-1a of the host name).
func stagger(host string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(host); i++ {
		h = (h ^ uint32(host[i])) * 16777619
	}
	return h % reproveEvery
}

// trustLocked spends one fetch of host's re-proving budget and returns the
// peer host is known to reach, or nil when the fetch must dial for real:
// the host is unknown, or its memo is due for re-proving. Every fetch that
// takes the memo's word — by riding a parked connection or by not asking at
// all (feed.go) — goes through here, so every reproveEvery-th is a real dial.
// The caller holds c.mu.
func (c *Client) trustLocked(host string) *peer {
	hp, known := c.hosts[host]
	if !known || hp.fetches+1 >= reproveEvery {
		return nil
	}
	hp.fetches++
	c.hosts[host] = hp
	return hp.peer
}

// takeLocked removes and returns a parked connection to p, or the zero
// idleConn when none is live. The caller holds c.mu.
func (c *Client) takeLocked(p *peer) idleConn {
	for i := len(c.idle) - 1; i >= 0; i-- {
		ic := c.idle[i]
		if ic.peer != p {
			continue
		}
		c.idle = slices.Delete(c.idle, i, i+1)
		if ic.expire.Stop() {
			c.reuses.Add(1)
			return ic
		}
		// Past poolIdleAge: the timer is closing it.
	}
	return idleConn{}
}

// checkout returns a parked connection to the peer host is known to reach,
// or the zero idleConn when the fetch must dial: the host is unknown, its memo
// is due for re-proving, or nothing is parked for its peer.
func (c *Client) checkout(host string) idleConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.trustLocked(host); p != nil {
		return c.takeLocked(p)
	}
	return idleConn{}
}

// learn records the peer a real dial of host reached, and counts the dial as
// a move if the host was known to reach another; a peer the move leaves
// unnamed departs.
func (c *Client) learn(host string, addr net.Addr) *peer {
	name := addr.String()
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.peers[name]
	if p == nil {
		if c.peers == nil {
			c.peers, c.hosts = make(map[string]*peer), make(map[string]hostPeer)
		}
		p = &peer{addr: name}
		c.peers[name] = p
	}
	hp, known := c.hosts[host]
	hp.fetches = 0
	if !known {
		hp.fetches = stagger(host)
	}
	if hp.peer != p {
		if known {
			c.peerMoves.Add(1)
			hp.peer.hosts--
			c.departLocked(hp.peer)
		}
		hp.peer = p
		p.hosts++
	}
	c.hosts[host] = hp
	return p
}

// departLocked drops p from the peer table once no host proof and no memo
// name it. A p that had left before (see peer) may share its address with the
// value now in the table, which stays. The caller holds c.mu.
func (c *Client) departLocked(p *peer) {
	if p.hosts == 0 && p.points == 0 && c.peers[p.addr] == p {
		delete(c.peers, p.addr)
	}
}

// settle ends an owner's use of conn, and is the one place that decides what a
// used connection is worth: clean — every exchange on it completed at the
// protocol level (the owner's claim), no unread byte is buffered and the
// context watcher stop cancels had not fired — or not. A clean connection is
// parked for the next fetch that reaches p, anything else is closed; what
// was read off a connection that did not settle clean is not to be believed
// either.
func (c *Client) settle(p *peer, conn net.Conn, r *bufio.Reader, stop func() bool, completed bool) (clean bool) {
	if completed && r.Buffered() == 0 && stop() {
		c.park(p, conn, r)
		return true
	}
	stop()
	_ = conn.Close()
	return false
}

// park keeps a clean connection for the next fetch that reaches p, pushing
// out the oldest parked one when the pool is full.
func (c *Client) park(p *peer, conn net.Conn, r *bufio.Reader) {
	if c.noReuse {
		_ = conn.Close()
		return
	}
	var oldest idleConn
	c.mu.Lock()
	if len(c.idle) >= poolSize {
		oldest = c.idle[0]
		c.idle = slices.Delete(c.idle, 0, 1)
	}
	expire := time.AfterFunc(poolIdleAge, func() { _ = conn.Close() })
	c.idle = append(c.idle, idleConn{peer: p, conn: conn, r: r, expire: expire})
	c.mu.Unlock()
	if oldest.expire != nil && oldest.expire.Stop() {
		_ = oldest.conn.Close()
	}
}
