package repo

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Module couples a publication point's store with its fault plan.
type Module struct {
	Store  *Store
	Faults *Faults
	// tokenPrefix is "<boot nonce>.<registration>.": what makes this
	// registration's tokens differ from every other's. Set by AddModule.
	tokenPrefix string
}

// version returns the store version the module's tokens are rendered from —
// the one its fault plan pinned, else the live store's — and whether VERSIONS
// may list the module: a module with a fault plan is vouched for only if the
// plan says what to vouch (Faults.FreezeVersion), so every other fault is met
// on the listing path it was written for.
func (m *Module) version() (v uint64, vouched bool) {
	p := m.Faults.decide("VERSIONS", "", m.Store)
	return p.version, m.Faults == nil || p.pinned
}

// appendToken appends the module's token for store version v.
func (m *Module) appendToken(dst []byte, v uint64) []byte {
	return strconv.AppendUint(append(dst, m.tokenPrefix...), v, 10)
}

// Server serves one or more publication points over the rsynclite protocol.
// A single server hosting many modules models a hosted publication service;
// a server with one module models an authority self-hosting its repository
// (the configuration that creates the paper's Side Effect 7 circularity).
type Server struct {
	// ReadTimeout bounds how long a connection may sit idle between
	// requests (and how long one request/response exchange may take)
	// before the server drops it, so a hung peer cannot pin a handler
	// forever. The deadline is re-armed for every request, so a
	// long-lived connection that keeps issuing commands — a relying
	// party pipelining GETs for a whole module — is never cut off
	// mid-sync. Default 30s. Set before Listen.
	ReadTimeout time.Duration

	// nonce tells this server's tokens from those of any other boot.
	nonce string

	mu      sync.RWMutex
	modules map[string]*Module
	// registrations counts AddModule calls. guarded by mu.
	registrations uint64
	ln            net.Listener
	// conns holds every connection a handler is serving, so Close can wake
	// the ones parked between requests. guarded by mu.
	conns map[net.Conn]struct{}
	// wg counts the accept loop and the handlers; closed is closed by Close.
	wg     sync.WaitGroup
	closed chan struct{}
}

// NewServer returns a server with no modules.
func NewServer() *Server {
	return &Server{
		nonce:   strconv.FormatUint(rand.Uint64(), 36),
		modules: make(map[string]*Module),
		conns:   make(map[net.Conn]struct{}),
		closed:  make(chan struct{}),
	}
}

// AddModule registers (or replaces) a module. A nil Faults means no
// injected faults. A replaced module never repeats a token of the one it
// replaced, whatever the two stores' versions.
func (s *Server) AddModule(name string, store *Store, faults *Faults) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registrations++
	prefix := s.nonce + "." + strconv.FormatUint(s.registrations, 10) + "."
	s.modules[name] = &Module{Store: store, Faults: faults, tokenPrefix: prefix}
}

// Module returns a registered module.
func (s *Server) Module(name string) (*Module, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.modules[name]
	return m, ok
}

// Listen starts accepting connections on addr ("127.0.0.1:0" for an
// ephemeral port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("repo: listen: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops the server and waits for its handlers. A connection idle
// between requests — a client keeps clean connections parked — is woken by a
// read deadline in the past rather than waited out for ReadTimeout; a reply
// being written is finished first.
func (s *Server) Close() error {
	s.mu.Lock()
	ln := s.ln
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	// closed is closed before any deadline moves, and a handler looks at it
	// right after re-arming its own: whichever deadline lands last, the
	// handler leaves.
	for conn := range s.conns {
		if err := conn.SetReadDeadline(time.Unix(1, 0)); err != nil {
			_ = conn.Close()
		}
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// track registers or forgets a handler's connection.
func (s *Server) track(conn net.Conn, live bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if live {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

// liveConns is how many connections handlers are serving.
func (s *Server) liveConns() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.conns)
}

func (s *Server) readTimeout() time.Duration {
	if s.ReadTimeout > 0 {
		return s.ReadTimeout
	}
	return 30 * time.Second
}

// handle serves one connection. Each accepted connection runs on its own
// goroutine (see acceptLoop), so a slow or hung client never stalls the
// accept loop or other clients.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	s.track(conn, true)
	defer s.track(conn, false)
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	defer w.Flush()

	for {
		// Rolling per-request deadline: covers reading the next command
		// and writing its response. A conn that refuses the deadline is
		// dropped rather than served unbounded.
		if err := conn.SetDeadline(time.Now().Add(s.readTimeout())); err != nil {
			return
		}
		// Close may have set its wake-up deadline just before this one
		// replaced it (see Close).
		select {
		case <-s.closed:
			return
		default:
		}
		line, err := readLine(r)
		if err != nil {
			return
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			_ = writeLine(w, "ERR empty request")
			return
		}
		switch fields[0] {
		case "LIST":
			if len(fields) != 2 {
				_ = writeLine(w, "ERR LIST wants 1 argument")
				return
			}
			if !s.serveList(w, fields[1]) {
				return
			}
		case "GET":
			if len(fields) != 3 {
				_ = writeLine(w, "ERR GET wants 2 arguments")
				return
			}
			if !s.serveGet(w, fields[1], fields[2]) {
				return
			}
		case "VERSIONS":
			if len(fields) != 1 {
				_ = writeLine(w, "ERR VERSIONS wants no argument")
				return
			}
			if !s.serveVersions(w) {
				return
			}
		case "QUIT":
			return
		default:
			_ = writeLine(w, "ERR unknown command %q", fields[0])
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// admit acts on the module-level part of a LIST's or GET's verdict: the
// module delay, then the script's or the module FailRate's action. It reports
// whether the request is served on and, when it is not, whether handle keeps
// the connection (after an ERR reply) or drops it as if the server were
// unreachable.
func admit(w *bufio.Writer, v *verdict) (serve, keep bool) {
	if v.delay > 0 {
		time.Sleep(v.delay)
	}
	switch v.act {
	case ActDropConn:
		return false, false
	case ActErr:
		_ = writeLine(w, "ERR scripted fault")
		return false, true
	}
	return true, true
}

// serveList answers a LIST with every object's size and SHA-256 as the store
// recorded them at publication, after applying the fault plan: a dropped
// object is absent, a frozen listing is served in the store's place, and a
// Corrupted object is listed with the digest of the bytes a GET would serve —
// the client must not be able to detect that fault for free. The listing and
// its version come from one read of the store, taken with the plan's when the
// request arrives, so the token always goes out and equal tokens list equal
// objects; an echo repeats the same listing.
func (s *Server) serveList(w *bufio.Writer, module string) bool {
	m, found := s.Module(module)
	if !found {
		_ = writeLine(w, "ERR no such module %q", module)
		return true
	}
	v := m.Faults.decide("LIST", "", m.Store)
	if serve, keep := admit(w, &v); !serve {
		return keep
	}
	if v.echo > 0 {
		// The reply, then the same reply again, late and unasked.
		if !writeListing(w, m, &v) || w.Flush() != nil {
			return false
		}
		time.Sleep(v.echo)
	}
	return writeListing(w, m, &v)
}

// writeListing writes one LIST reply as v settled it: v's listing under the
// token for v's version, less the names v hides, with the ones it damages
// listed as a GET serves them.
func writeListing(w *bufio.Writer, m *Module, v *verdict) bool {
	entries := make([]string, 0, len(v.listing))
	for name := range v.listing {
		if !v.hidden[name] {
			entries = append(entries, name)
		}
	}
	sort.Strings(entries)
	line := strconv.AppendInt([]byte("OK "), int64(len(entries)), 10)
	line = m.appendToken(append(line, ' '), v.version)
	if _, err := w.Write(append(line, '\n')); err != nil {
		return false
	}
	for _, name := range entries {
		info := v.listing[name]
		if v.damaged[name] {
			// Only this path hashes per request: the digest must be that of
			// the bytes a GET would serve, not of what the store holds.
			content, _ := m.Store.Get(name)
			content = corruptBytes(content)
			info = ObjectInfo{Size: len(content), Hash: sha256.Sum256(content)}
		}
		line = appendListEntry(line[:0], name, info)
		if _, err := w.Write(line); err != nil {
			return false
		}
	}
	return true
}

// serveVersions answers VERSIONS: one line per module the server vouches for.
func (s *Server) serveVersions(w *bufio.Writer) bool {
	s.mu.RLock()
	lines := make([]byte, 0, 48*len(s.modules))
	n := 0
	for name, m := range s.modules {
		if v, vouched := m.version(); vouched {
			lines = append(append(lines, name...), ' ')
			lines = append(m.appendToken(lines, v), '\n')
			n++
		}
	}
	s.mu.RUnlock()
	if err := writeLine(w, "OK %d", n); err != nil {
		return false
	}
	_, err := w.Write(lines)
	return err == nil
}

// serveGet answers a GET with the object as the store held it when the
// request arrived, after applying the fault plan read then.
func (s *Server) serveGet(w *bufio.Writer, module, name string) bool {
	m, found := s.Module(module)
	if !found {
		_ = writeLine(w, "ERR no such module %q", module)
		return true
	}
	v := m.Faults.decide("GET", name, m.Store)
	if serve, keep := admit(w, &v); !serve {
		return keep
	}
	if !validName(name) {
		_ = writeLine(w, "ERR invalid object name")
		return true
	}
	if v.wait > 0 {
		time.Sleep(v.wait)
	}
	if v.fail {
		return false
	}
	if !v.stored || v.hide {
		_ = writeLine(w, "ERR no such object %q", name)
		return true
	}
	content := v.content
	if v.corrupt {
		content = corruptBytes(content)
	}
	if err := writeLine(w, "OK %d", len(content)); err != nil {
		return false
	}
	if v.truncate {
		// Correct header, half the body, dead connection: a torn transfer.
		_, _ = w.Write(content[:len(content)/2])
		_ = w.Flush()
		return false
	}
	if d := v.slowLoris; d > 0 {
		// Trickle one byte per interval: the connection is alive, progress
		// is nearly zero — only a per-request deadline (and the breaker
		// above it) defends against this.
		for i := range content {
			time.Sleep(d)
			if err := w.WriteByte(content[i]); err != nil {
				return false
			}
			if err := w.Flush(); err != nil {
				return false
			}
		}
		return true
	}
	if bw := v.bandwidth; bw > 0 {
		// Sustained byte-rate cap: ship the body in ticks of bw/10 bytes per
		// 100ms (at least 1 byte per tick), so the transfer progresses at
		// roughly bytesPerSec and a deadline budget — not a first-byte
		// timeout — decides whether the client survives it.
		chunk := bw / 10
		if chunk < 1 {
			chunk = 1
		}
		for off := 0; off < len(content); off += chunk {
			time.Sleep(100 * time.Millisecond)
			end := off + chunk
			if end > len(content) {
				end = len(content)
			}
			if _, err := w.Write(content[off:end]); err != nil {
				return false
			}
			if err := w.Flush(); err != nil {
				return false
			}
		}
		return true
	}
	if _, err := w.Write(content); err != nil {
		return false
	}
	return true
}
