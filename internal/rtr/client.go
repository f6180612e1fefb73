package rtr

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/rov"
)

// Client is the router side of the RTR protocol: it maintains a local copy
// of the cache's VRPs and keeps it current via serial queries.
//
// Run may be called again after it returns (the connection dropped): a
// client that has synced at least once resumes its session with a serial
// query, replaying only the deltas it missed; the server answers Cache
// Reset — and the client falls back to a full snapshot reload — when the
// session changed or the serial aged out of the server's history window. A
// cache that instead answers a serial query under another session has that
// response dropped unapplied and is sent a Reset Query (RFC 8210 §5.1).
// Delta application is idempotent (announce = set, withdraw = delete), so a
// delta replayed across a reconnect race can never skip or duplicate state.
type Client struct {
	addr string

	mu sync.Mutex
	// chunks is the local VRP copy, held the way Cache holds its set: the
	// canonical order cut into chunks of at most chunkVRPs, without frames.
	// The client is their only holder and a delta reuses the storage of the
	// chunks it replaces (rebuildChunks), so they are read and rebuilt under
	// the lock and never handed out. guarded by mu.
	chunks []*chunk
	// Sync state. session and serial are those of the last End of Data.
	// guarded by mu.
	serial   uint32
	session  uint16
	synced   bool
	resumes  uint64
	reloads  uint64
	onSync   func([]rov.VRP)
	onSerial func(uint32)
	// mismatches counts serial-query responses dropped because the cache
	// answered under another session (each also ends in a reload). guarded by mu.
	mismatches uint64

	// responseCap is maxResponsePDUs (tests lower it). Set before Run.
	responseCap int
}

// maxResponsePDUs caps the prefix PDUs of one cache response (≈ 6× today's
// RPKI). A cache that never sends End of Data would otherwise grow the
// client's staging slice without bound.
const maxResponsePDUs = 1 << 22

// NewClient creates a client for the RTR server at addr.
func NewClient(addr string) *Client {
	return &Client{addr: addr, responseCap: maxResponsePDUs}
}

// OnSync registers a callback invoked with the full VRP set after every
// completed update. The set is a fresh copy (see VRPs), O(n) per update
// however small; at fleet-scale fan-out prefer OnSerial and read VRPs() when
// needed.
func (c *Client) OnSync(fn func([]rov.VRP)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onSync = fn
}

// OnSerial registers a callback invoked with the new serial after every
// completed update — constant-cost, for latency measurement and
// convergence barriers over many clients.
func (c *Client) OnSerial(fn func(uint32)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onSerial = fn
}

// VRPs returns the VRP set as of the last End of Data (the set the cache
// held at Serial()), in canonical order; a response in progress is not
// visible. The result is the caller's: one allocation and one copy of the
// set, no sort. The copy is made under the client's lock (6.4 MB, ≈ 1.3 ms
// at 200,000 VRPs), which an End of Data arriving meanwhile waits for.
func (c *Client) VRPs() []rov.VRP {
	c.mu.Lock()
	defer c.mu.Unlock()
	return flattenChunks(c.chunks)
}

// Serial returns the last completed serial.
func (c *Client) Serial() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serial
}

// Synced reports whether at least one End of Data has been processed.
func (c *Client) Synced() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.synced
}

// Resumes reports reconnects that picked up via serial query (session
// resumption); Reloads reports full snapshot loads (first sync, cache
// resets).
func (c *Client) Resumes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumes
}

// Reloads reports completed full snapshot reloads.
func (c *Client) Reloads() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reloads
}

// Run connects and synchronizes until ctx is canceled. A first-time client
// performs an initial reset query; a client with prior synced state resumes
// with a serial query instead. It then reacts to serial notifies with
// serial queries. Run returns the first fatal error, or ctx.Err() on
// cancellation; calling Run again reconnects and resumes.
func (c *Client) Run(ctx context.Context) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return fmt.Errorf("rtr: dial %s: %w", c.addr, err)
	}
	defer conn.Close()
	go func() {
		<-ctx.Done()
		conn.Close()
	}()
	return c.sync(ctx, conn)
}

// sync speaks the router side of the protocol over conn until a fatal error
// or until conn is closed; Run closes it when ctx is canceled.
func (c *Client) sync(ctx context.Context, conn net.Conn) error {
	// Each query the client sends is deadline-bounded so a stalled cache
	// cannot wedge the writer; reads stay unbounded by design — the client
	// legitimately idles until the cache pushes a notify.
	armWrite := func() error {
		return conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	}
	r := pduReader{r: bufio.NewReader(conn)}
	if err := armWrite(); err != nil {
		return fmt.Errorf("rtr: arming write deadline: %w", err)
	}
	c.mu.Lock()
	resume := c.synced
	serial, session := c.serial, c.session
	c.mu.Unlock()
	if resume {
		// Session resumption: ask only for what we missed. The server
		// replies with the missed deltas, or Cache Reset if our serial
		// aged out of its history window.
		if err := WritePDU(conn, &PDU{Type: TypeSerialQuery, Session: session, Serial: serial}); err != nil {
			return fmt.Errorf("rtr: resume serial query: %w", err)
		}
	} else {
		if err := WritePDU(conn, &PDU{Type: TypeResetQuery}); err != nil {
			return fmt.Errorf("rtr: reset query: %w", err)
		}
	}
	// pending holds the current response's prefix PDUs in arrival order.
	// They reach the set only at End of Data, in one swap, so VRPs() never
	// returns a set the cache did not hold: not the half of a delta between
	// a withdraw and its announce, not a response cut short.
	var pending []prefixOp
	inResponse := false
	fullReload := !resume
	var respSession uint16 // the session the response in progress was opened under
	// discard: the response in progress answers a serial query under a
	// session other than the one queried with. It is read to its End of Data
	// and dropped; the Reset Query already sent brings the full reload.
	discard := false

	for {
		p, err := r.next() // p is reused: valid until the next call
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("rtr: read: %w", err)
		}
		switch p.Type {
		case TypeCacheResponse:
			inResponse = true
			pending = nil
			respSession = p.Session
			c.mu.Lock()
			session := c.session
			c.mu.Unlock()
			if !fullReload && respSession != session {
				// RFC 8210 §5.1: deltas of another session say nothing about
				// the set held under this one. A cache in the tree answers
				// such a query with Cache Reset; one that does not gets the
				// same treatment.
				discard, fullReload, resume = true, true, false
				c.mu.Lock()
				c.mismatches++
				c.mu.Unlock()
				if err := armWrite(); err != nil {
					return fmt.Errorf("rtr: arming write deadline: %w", err)
				}
				if err := WritePDU(conn, &PDU{Type: TypeResetQuery}); err != nil {
					return fmt.Errorf("rtr: reset query: %w", err)
				}
			}

		case TypeIPv4Prefix, TypeIPv6Prefix:
			if !inResponse {
				return fmt.Errorf("rtr: prefix PDU outside cache response")
			}
			if discard {
				continue
			}
			if len(pending) >= c.responseCap {
				return fmt.Errorf("rtr: cache response exceeds the cap of %d prefix PDUs without End of Data", c.responseCap)
			}
			pending = append(pending, prefixOp{vrp: p.VRP, announce: p.Flags&FlagAnnounce != 0})

		case TypeEndOfData:
			if !inResponse {
				return fmt.Errorf("rtr: end of data outside cache response")
			}
			inResponse = false
			if discard {
				discard = false
				continue
			}
			announced, withdrawn := reduceOps(pending)
			pending = nil // a snapshot's or a whacked subtree's worth of ops is not worth keeping
			var reloaded []*chunk
			if fullReload {
				// Built before the lock is taken: readers keep the old set
				// until the swap. Withdraws of a reload fall on the empty set.
				reloaded = appendChunks(nil, announced, false)
			}
			// A delta is applied to the set held now, under the lock, not to a
			// copy read earlier: a Run started while an earlier one was still
			// draining its connection shares the table with it.
			c.mu.Lock()
			if fullReload {
				c.chunks = reloaded
				c.reloads++
			} else {
				c.chunks = rebuildChunks(c.chunks, announced, withdrawn, false)
				if resume {
					c.resumes++ // the resumption is counted once
				}
			}
			c.serial, c.session, c.synced = p.Serial, respSession, true
			cbSync := c.onSync
			cbSerial := c.onSerial
			c.mu.Unlock()
			fullReload, resume = false, false
			if cbSerial != nil {
				cbSerial(p.Serial)
			}
			if cbSync != nil {
				cbSync(c.VRPs())
			}

		case TypeSerialNotify:
			c.mu.Lock()
			serial, session := c.serial, c.session
			c.mu.Unlock()
			if p.Serial == serial {
				continue
			}
			if err := armWrite(); err != nil {
				return fmt.Errorf("rtr: arming write deadline: %w", err)
			}
			if err := WritePDU(conn, &PDU{Type: TypeSerialQuery, Session: session, Serial: serial}); err != nil {
				return fmt.Errorf("rtr: serial query: %w", err)
			}

		case TypeCacheReset:
			fullReload = true
			resume = false
			if err := armWrite(); err != nil {
				return fmt.Errorf("rtr: arming write deadline: %w", err)
			}
			if err := WritePDU(conn, &PDU{Type: TypeResetQuery}); err != nil {
				return fmt.Errorf("rtr: reset query: %w", err)
			}

		case TypeErrorReport:
			return fmt.Errorf("rtr: server error %d: %s", p.Session, p.ErrText)

		default:
			return fmt.Errorf("rtr: unexpected PDU type %d", p.Type)
		}
	}
}

// prefixOp is one staged prefix PDU: announce sets the VRP, withdraw deletes
// it.
type prefixOp struct {
	vrp      rov.VRP
	announce bool
}

// reduceOps reduces one response's prefix PDUs to the delta they amount to
// when replayed in arrival order — announce = set, withdraw = delete, so the
// last PDU naming a VRP decides: announced holds the VRPs left set, withdrawn
// those left deleted, both canonical, no VRP in both. The shape every cache
// in the tree sends (canonicalOps) is recognised in one linear pass; any
// other order, duplicates and contradictions included, is first sorted by
// VRP, stably, and cut down to the last PDU per VRP. ops is reordered.
func reduceOps(ops []prefixOp) (announced, withdrawn []rov.VRP) {
	if !canonicalOps(ops) {
		slices.SortStableFunc(ops, func(a, b prefixOp) int { return a.vrp.Compare(b.vrp) })
		last := ops[:0]
		for i, op := range ops {
			if i+1 == len(ops) || ops[i+1].vrp != op.vrp {
				last = append(last, op)
			}
		}
		ops = last
	}
	// Either way each kind is now ascending where it lies.
	n := 0
	for _, op := range ops {
		if op.announce {
			n++
		}
	}
	announced, withdrawn = make([]rov.VRP, 0, n), make([]rov.VRP, 0, len(ops)-n)
	for _, op := range ops {
		if op.announce {
			announced = append(announced, op.vrp)
		} else {
			withdrawn = append(withdrawn, op.vrp)
		}
	}
	return announced, withdrawn
}

// canonicalOps reports whether ops is announces in strictly ascending order,
// then withdraws in strictly ascending order, with no VRP in both: a snapshot
// or one delta as Cache serializes it.
func canonicalOps(ops []prefixOp) bool {
	split := 0
	for split < len(ops) && ops[split].announce {
		split++
	}
	for i := 1; i < len(ops); i++ {
		if i != split && (ops[i].announce != ops[i-1].announce || ops[i-1].vrp.Compare(ops[i].vrp) >= 0) {
			return false
		}
	}
	for i, j := 0, split; i < split && j < len(ops); {
		switch c := ops[i].vrp.Compare(ops[j].vrp); {
		case c == 0:
			return false
		case c < 0:
			i++
		default:
			j++
		}
	}
	return true
}

// WaitSynced blocks until the client has completed an initial sync or the
// timeout elapses.
func (c *Client) WaitSynced(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.Synced() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return c.Synced()
}

// WaitSerial blocks until the client reaches at least the given serial, in
// serial-number arithmetic (RFC 1982): a client that has wrapped past
// 0xFFFFFFFF is ahead of one that has not.
func (c *Client) WaitSerial(serial uint32, timeout time.Duration) bool {
	reached := func() bool { return int32(c.Serial()-serial) >= 0 }
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if reached() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return reached()
}
