package rtr

import (
	"bufio"
	"context"
	"fmt"
	"net"
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
// session changed or the serial aged out of the server's history window.
// Delta application is idempotent (announce = set, withdraw = delete), so a
// delta replayed across a reconnect race can never skip or duplicate state.
type Client struct {
	addr string

	mu sync.Mutex
	// Local VRP copy and sync state. guarded by mu.
	vrps     map[rov.VRP]bool
	serial   uint32
	session  uint16
	synced   bool
	resumes  uint64
	reloads  uint64
	onSync   func([]rov.VRP)
	onSerial func(uint32)

	// responseCap is maxResponsePDUs (tests lower it). Set before Run.
	responseCap int
}

// maxResponsePDUs caps the prefix PDUs of one cache response (≈ 6× today's
// RPKI). A cache that never sends End of Data would otherwise grow the
// client's staging slice without bound.
const maxResponsePDUs = 1 << 22

// NewClient creates a client for the RTR server at addr.
func NewClient(addr string) *Client {
	return &Client{addr: addr, vrps: make(map[rov.VRP]bool), responseCap: maxResponsePDUs}
}

// OnSync registers a callback invoked with the full VRP set after every
// completed update. Building the sorted set costs O(n) per update; at
// fleet-scale fan-out prefer OnSerial and read VRPs() when needed.
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
// visible.
func (c *Client) VRPs() []rov.VRP {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]rov.VRP, 0, len(c.vrps))
	for v := range c.vrps {
		out = append(out, v)
	}
	rov.SortVRPs(out)
	return out
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
	// They reach c.vrps only at End of Data, under one lock, so VRPs() never
	// returns a set the cache did not hold: not the half of a delta between
	// a withdraw and its announce, not a response cut short. Applying them
	// in order keeps the last PDU per VRP the winner, as before.
	var pending []prefixOp
	inResponse := false
	fullReload := !resume

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
			c.mu.Lock()
			c.session = p.Session
			c.mu.Unlock()
			pending = nil

		case TypeIPv4Prefix, TypeIPv6Prefix:
			if !inResponse {
				return fmt.Errorf("rtr: prefix PDU outside cache response")
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
			var reloaded map[rov.VRP]bool
			if fullReload {
				// Built before the lock is taken: readers keep the old set
				// until the swap.
				reloaded = make(map[rov.VRP]bool, len(pending))
				applyOps(reloaded, pending)
			}
			c.mu.Lock()
			if reloaded != nil {
				c.vrps = reloaded
				c.reloads++
			} else {
				applyOps(c.vrps, pending)
				if resume {
					c.resumes++
					resume = false // count the resumption once
				}
			}
			fullReload = false
			c.serial = p.Serial
			c.synced = true
			cbSync := c.onSync
			cbSerial := c.onSerial
			c.mu.Unlock()
			pending = nil // a snapshot's or a whacked subtree's worth of ops is not worth keeping
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

// applyOps replays staged prefix PDUs onto set in arrival order.
func applyOps(set map[rov.VRP]bool, ops []prefixOp) {
	for _, op := range ops {
		if op.announce {
			set[op.vrp] = true
		} else {
			delete(set, op.vrp)
		}
	}
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

// WaitSerial blocks until the client reaches at least the given serial.
func (c *Client) WaitSerial(serial uint32, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.Serial() >= serial {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return c.Serial() >= serial
}
