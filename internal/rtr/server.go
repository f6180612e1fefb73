package rtr

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// writeTimeout is the default bound on one response batch (snapshot replay
// included) to a client; RTR reads stay unbounded by design — clients
// legitimately idle between serial queries and are pushed notifies instead.
const writeTimeout = 30 * time.Second

// defaultSendQueue is the default per-connection response-queue capacity.
// Notifies are coalesced outside this queue, so the queue only ever holds
// query responses: a client with this many answers in flight is not
// reading, and the next answer evicts it.
const defaultSendQueue = 32

// Eviction reasons, recorded per eviction in the metrics.
const (
	evictWriteStall = "write-stall"
	evictQueueFull  = "queue-full"
)

// Server serves the RTR protocol for one cache.
//
// Each connection runs one reader and one writer goroutine around a
// fixed-size send queue. The cache's notify path never blocks on a
// connection (serial notifies coalesce into a 1-slot doorbell), and the
// writer never blocks the cache: a router that stops draining its socket
// either stalls a write past WriteTimeout or fills its send queue, and is
// then evicted with a best-effort Error PDU instead of back-pressuring the
// fan-out — the distribution-layer analogue of the relying party's
// slow-loris defenses.
type Server struct {
	cache  *Cache
	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{}

	// MaxClients caps concurrent connections (0: unlimited). A connection
	// over the cap is answered with an Error PDU and closed. Set before
	// Listen.
	MaxClients int
	// SendQueue is the per-connection response-queue capacity (0: default
	// 32). Set before Listen.
	SendQueue int
	// WriteTimeout bounds one write batch to a client (0: default 30s).
	// Set before Listen.
	WriteTimeout time.Duration
	// WriteBuffer, when > 0, sets each accepted connection's kernel send
	// buffer. At fleet scale the kernel's default per-socket buffer times
	// 10k sockets is real memory; bounding it also makes a stalled
	// consumer hit WriteTimeout (and be evicted) instead of hiding behind
	// megabytes of kernel buffering. Set before Listen.
	WriteBuffer int

	active      atomic.Int64
	evictions   atomic.Uint64
	rejections  atomic.Uint64
	resumptions atomic.Uint64
	cacheResets atomic.Uint64
}

// NewServer creates an RTR server over cache.
func NewServer(cache *Cache) *Server {
	return &Server{cache: cache, closed: make(chan struct{})}
}

// Evictions reports connections dropped for slow consumption (write stall
// or full send queue).
func (s *Server) Evictions() uint64 { return s.evictions.Load() }

// Rejections reports connections refused over MaxClients.
func (s *Server) Rejections() uint64 { return s.rejections.Load() }

// Resumptions reports reconnecting clients whose first query was a serial
// query answered from the delta history — a session resumed without a full
// snapshot reload.
func (s *Server) Resumptions() uint64 { return s.resumptions.Load() }

// CacheResets reports serial queries answered with Cache Reset (session
// mismatch or serial out of the retained window).
func (s *Server) CacheResets() uint64 { return s.cacheResets.Load() }

func (s *Server) sendQueue() int {
	if s.SendQueue > 0 {
		return s.SendQueue
	}
	return defaultSendQueue
}

func (s *Server) writeTimeout() time.Duration {
	if s.WriteTimeout > 0 {
		return s.WriteTimeout
	}
	return writeTimeout
}

// Listen binds addr and starts serving; it returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rtr: listen: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				if errors.Is(err, net.ErrClosed) {
					return
				}
				select {
				case <-s.closed:
					return
				default:
					continue
				}
			}
			if s.MaxClients > 0 && s.active.Load() >= int64(s.MaxClients) {
				s.rejections.Add(1)
				if met := s.cache.met.Load(); met != nil {
					met.rejections.Inc()
				}
				s.refuse(conn)
				continue
			}
			s.active.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer s.active.Add(-1)
				s.handle(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// refuse answers an over-cap connection with a graceful Error PDU and
// closes it, off the accept loop so a wedged peer cannot stall accepts.
func (s *Server) refuse(conn net.Conn) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer conn.Close()
		if conn.SetWriteDeadline(time.Now().Add(2*time.Second)) != nil {
			return
		}
		_ = WritePDU(conn, &PDU{Type: TypeErrorReport, Session: ErrNoDataAvailable,
			ErrText: "connection limit reached"})
	}()
}

// Close stops the server.
func (s *Server) Close() error {
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

// response is one fully formed answer: an ordered batch of wire segments
// (header PDUs interleaved with shared zero-copy frames) written atomically
// by the connection's writer goroutine.
type response struct {
	segs [][]byte
	// drop closes the connection after the batch is written (protocol
	// errors, server-initiated errors).
	drop bool
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	if s.WriteBuffer > 0 {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetWriteBuffer(s.WriteBuffer)
		}
	}
	sendq := make(chan response, s.sendQueue())
	sub := s.cache.subscribe(conn.RemoteAddr().String(), func() int { return len(sendq) })
	defer s.cache.unsubscribe(sub)

	// evictq carries at most one eviction verdict from the reader (queue
	// full) to the writer, which owns the socket teardown.
	evictq := make(chan string, 1)
	readErr := make(chan error, 1)
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		readErr <- s.readLoop(conn, sendq, evictq)
	}()

	s.writeLoop(conn, sub, sendq, evictq, readErr)

	// Unblock and collect the reader: closing the conn (deferred above
	// fires on return, but the reader may be mid-read now) fails its read.
	conn.Close()
	readerDone.Wait()
}

// readLoop reads queries and enqueues fully formed responses. It never
// writes to the socket and never blocks on the send queue: a full queue is
// a slow consumer, reported on evictq for the writer to terminate.
func (s *Server) readLoop(conn net.Conn, sendq chan response, evictq chan string) error {
	//lint:ignore deadlinebeforeio RTR reads are unbounded by design: routers idle between queries and are pushed notifies
	r := bufio.NewReaderSize(conn, 512)
	firstQuery := true
	for {
		q, err := ReadPDU(r)
		if err != nil {
			return err
		}
		resp, ok := s.answer(q, firstQuery)
		firstQuery = false
		if !ok {
			// Protocol-fatal query: enqueue the error (drop flag set) and
			// stop reading.
			select {
			case sendq <- resp:
			default:
				s.requestEvict(evictq, evictQueueFull)
			}
			return nil
		}
		select {
		case sendq <- resp:
		default:
			// The client has a full queue of unread answers and keeps
			// asking: evict rather than buffer without bound or block the
			// reader.
			s.requestEvict(evictq, evictQueueFull)
			return nil
		}
	}
}

// requestEvict posts an eviction verdict (first one wins).
func (s *Server) requestEvict(evictq chan string, reason string) {
	select {
	case evictq <- reason:
	default:
	}
}

// writeLoop owns all socket writes: query responses from the send queue
// and coalesced serial notifies from the subscriber doorbell. Every batch
// is deadline-armed; a write that times out means the consumer stalled and
// the connection is evicted. A router that disconnected is not a slow
// consumer: the reader's exit with an error, or a write that fails for any
// reason but its deadline, ends the loop (freeing the subscriber slot)
// without counting an eviction.
func (s *Server) writeLoop(conn net.Conn, sub *subscriber, sendq chan response, evictq chan string, readErr <-chan error) {
	w := bufio.NewWriterSize(conn, 1024)
	timeout := s.writeTimeout()
	// writeBatch reports success; on a stalled write it evicts first.
	writeBatch := func(segs [][]byte) bool {
		err := conn.SetWriteDeadline(time.Now().Add(timeout))
		for i := 0; err == nil && i < len(segs); i++ {
			_, err = w.Write(segs[i])
		}
		if err == nil {
			err = w.Flush()
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.evict(conn, w, evictWriteStall)
		}
		return err == nil
	}
	for {
		select {
		case <-s.closed:
			return
		case err := <-readErr:
			if err != nil {
				return
			}
			// The reader stopped on its own verdict (fatal query answered,
			// or eviction requested): that verdict is still queued for us.
			readErr = nil
		case err := <-evictq:
			s.evict(conn, w, err)
			return
		case <-sub.wake:
			serial := sub.pending.Load()
			if !writeBatch([][]byte{mustMarshal(&PDU{
				Type: TypeSerialNotify, Session: s.cache.Session(), Serial: serial})}) {
				return
			}
			// The notify reached the client's socket: one propagation
			// latency sample for this delta.
			s.cache.observePropagation(serial)
		case resp := <-sendq:
			if !writeBatch(resp.segs) {
				return
			}
			if resp.drop {
				return
			}
		}
	}
}

// evict terminates a slow consumer: count it, then best-effort write a
// graceful Error PDU under a short deadline (a write-stalled socket will
// simply fail it) and return — the caller closes the connection.
func (s *Server) evict(conn net.Conn, w *bufio.Writer, reason string) {
	s.evictions.Add(1)
	if met := s.cache.met.Load(); met != nil {
		met.evictions.With(reason).Inc()
	}
	deadline := 2 * time.Second
	if t := s.writeTimeout(); t < deadline {
		deadline = t
	}
	if conn.SetWriteDeadline(time.Now().Add(deadline)) != nil {
		return
	}
	if WritePDU(w, &PDU{Type: TypeErrorReport, Session: ErrNoDataAvailable,
		ErrText: "evicted: slow consumer (" + reason + ")"}) == nil {
		_ = w.Flush()
	}
}

// mustMarshal encodes a server-constructed PDU (whose shapes are all
// marshalable by construction).
func mustMarshal(p *PDU) []byte {
	b, err := p.Marshal()
	if err != nil {
		panic("rtr: marshal of server PDU failed: " + err.Error())
	}
	return b
}

// answer builds the response batch for one query; ok=false means the
// connection must drop after the batch is written. The hot path stitches
// the cache's precomputed shared frames into the batch verbatim — no VRP is
// re-serialized per client.
func (s *Server) answer(q *PDU, firstQuery bool) (response, bool) {
	switch q.Type {
	case TypeResetQuery:
		chunks, serial, session := s.cache.snapshot()
		segs := make([][]byte, 0, len(chunks)+2)
		segs = append(segs, mustMarshal(&PDU{Type: TypeCacheResponse, Session: session}))
		for _, ch := range chunks {
			segs = append(segs, ch.frame)
		}
		segs = append(segs, mustMarshal(&PDU{Type: TypeEndOfData, Session: session, Serial: serial}))
		return response{segs: segs}, true

	case TypeSerialQuery:
		session := s.cache.Session()
		if q.Session != session {
			// Session mismatch: tell the client to reset.
			s.cacheResets.Add(1)
			if met := s.cache.met.Load(); met != nil {
				met.cacheResets.Inc()
			}
			return response{segs: [][]byte{mustMarshal(&PDU{Type: TypeCacheReset})}}, true
		}
		frames, serial, ok := s.cache.deltaFrames(q.Serial)
		if !ok {
			// The queried serial predates the retained history window:
			// the client must reload the full snapshot.
			s.cacheResets.Add(1)
			if met := s.cache.met.Load(); met != nil {
				met.cacheResets.Inc()
			}
			return response{segs: [][]byte{mustMarshal(&PDU{Type: TypeCacheReset})}}, true
		}
		if firstQuery {
			// A fresh connection opening with an in-window serial query is
			// a reconnecting router resuming its session: it replays only
			// the missed deltas instead of the full snapshot.
			s.resumptions.Add(1)
			if met := s.cache.met.Load(); met != nil {
				met.resumptions.Inc()
			}
		}
		segs := make([][]byte, 0, len(frames)+2)
		segs = append(segs, mustMarshal(&PDU{Type: TypeCacheResponse, Session: session}))
		segs = append(segs, frames...)
		segs = append(segs, mustMarshal(&PDU{Type: TypeEndOfData, Session: session, Serial: serial}))
		return response{segs: segs}, true

	case TypeErrorReport:
		return response{drop: true}, false

	default:
		return response{segs: [][]byte{mustMarshal(&PDU{Type: TypeErrorReport, Session: ErrUnsupportedPDU,
			ErrText: fmt.Sprintf("unsupported PDU type %d", q.Type)})}, drop: true}, false
	}
}
