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
// instead of dialing. Parked connections are keyed by the peer address a real
// dial reached — never by URI host, which is a name the repository chose: 721
// names behind one listener share a handful of sockets, 721 names behind 721
// listeners never share one and behave exactly as without a pool. The rule
// set (who may park, what a reused connection may cost) is in protocol.go's
// header and DESIGN.md §6.
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

// peerID names an interned peer address.
type peerID int32

// hostPeer is what the client remembers about one URI host.
type hostPeer struct {
	peer peerID
	// fetches counts the fetches served since the last real dial.
	fetches uint32
}

// peerState is what the client keeps about one peer.
type peerState struct {
	// addr is the address real dials reached it at.
	addr string
	// points counts the remembered points whose listing it served (feed.go).
	points int
	// muted counts the polls left in which its VERSIONS feed is not asked for,
	// after it answered the verb with ERR.
	muted uint32
}

// idleConn is one parked connection: nothing in flight, nothing buffered.
type idleConn struct {
	peer peerID
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
// peer host is known to reach, or false when the fetch must dial for real:
// the host is unknown, or its memo is due for re-proving. Every fetch that
// takes the memo's word — by riding a parked connection or by not asking at
// all (feed.go) — goes through here, so every reproveEvery-th is a real dial.
// The caller holds c.mu.
func (c *Client) trustLocked(host string) (peerID, bool) {
	hp, known := c.hosts[host]
	if !known || hp.fetches+1 >= reproveEvery {
		return 0, false
	}
	hp.fetches++
	c.hosts[host] = hp
	return hp.peer, true
}

// takeLocked removes and returns a parked connection to peer, or the zero
// idleConn when none is live. The caller holds c.mu.
func (c *Client) takeLocked(peer peerID) idleConn {
	for i := len(c.idle) - 1; i >= 0; i-- {
		ic := c.idle[i]
		if ic.peer != peer {
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
	peer, ok := c.trustLocked(host)
	if !ok {
		return idleConn{}
	}
	return c.takeLocked(peer)
}

// learn records the peer a real dial of host reached, and counts the dial as
// a move if the host was known to reach another.
func (c *Client) learn(host string, addr net.Addr) peerID {
	name := addr.String()
	c.mu.Lock()
	defer c.mu.Unlock()
	peer, seen := c.peerIDs[name]
	if !seen {
		if c.peerIDs == nil {
			c.peerIDs, c.hosts = make(map[string]peerID), make(map[string]hostPeer)
		}
		peer = peerID(len(c.peers))
		c.peerIDs[name] = peer
		c.peers = append(c.peers, peerState{addr: name})
	}
	hp, known := c.hosts[host]
	if !known {
		hp.fetches = stagger(host)
	} else {
		hp.fetches = 0
		if hp.peer != peer {
			c.peerMoves.Add(1)
		}
	}
	hp.peer = peer
	c.hosts[host] = hp
	return peer
}

// settle ends an owner's use of conn, and is the one place that decides what a
// used connection is worth: clean — every exchange on it completed at the
// protocol level (the owner's claim), no unread byte is buffered and the
// context watcher stop cancels had not fired — or not. A clean connection is
// parked for the next fetch that reaches peer, anything else is closed; what
// was read off a connection that did not settle clean is not to be believed
// either.
func (c *Client) settle(peer peerID, conn net.Conn, r *bufio.Reader, stop func() bool, completed bool) (clean bool) {
	if completed && r.Buffered() == 0 && stop() {
		c.park(peer, conn, r)
		return true
	}
	stop()
	_ = conn.Close()
	return false
}

// park keeps a clean connection for the next fetch that reaches peer, pushing
// out the oldest parked one when the pool is full.
func (c *Client) park(peer peerID, conn net.Conn, r *bufio.Reader) {
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
	c.idle = append(c.idle, idleConn{peer: peer, conn: conn, r: r, expire: expire})
	c.mu.Unlock()
	if oldest.expire != nil && oldest.expire.Stop() {
		_ = oldest.conn.Close()
	}
}
