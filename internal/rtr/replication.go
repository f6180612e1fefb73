// Replication: a compact serial-numbered VRP-delta wire stream so N
// stateless RTR frontends can follow one validator's cache — the primary
// streams its snapshot and every subsequent delta, and each replica mirrors
// session, serial, and canonical VRP set exactly. Routers can therefore
// resume their RTR session against any frontend: the replicated state is
// byte-identical, session ID included.
//
// Wire format (all integers big-endian):
//
//	frame   = magic 0x52 'R' | version 0x01 | type u8 | reserved 0x00 |
//	          payload-length u32 | payload
//	hello    (replica→primary) = session u16 | serial u32 | flags u8
//	                             (flag bit0: replica has state to resume)
//	snapshot (primary→replica) = session u16 | serial u32 | count u32 |
//	                             count × record
//	delta    (primary→replica) = serial u32 | nAnnounce u32 | nWithdraw u32 |
//	                             records (announces then withdraws)
//	record  = family u8 (4|6) | prefix-bits u8 | max-length u8 |
//	          address (4 or 16 bytes) | asn u32
//
// The decoder is hard-bounded: a frame's declared payload length is checked
// against MaxReplicationPayload before any allocation, and record counts
// are validated against the actual payload size before any VRP is built —
// a hostile or corrupt peer cannot make a frontend allocate beyond the
// limit (the boundeddecode invariant, applied to the replication plane).
package rtr

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipres"
	"repro/internal/rov"
)

// Replication frame types.
const (
	ReplTypeHello    uint8 = 1
	ReplTypeSnapshot uint8 = 2
	ReplTypeDelta    uint8 = 3
)

// replVersion is the replication wire-format version.
const replVersion = 1

// replMagic leads every frame.
const replMagic = 0x52

// replHeaderLen is the fixed frame-header size.
const replHeaderLen = 8

// MaxReplicationPayload bounds one replication frame's payload: enough for
// a multi-million-VRP snapshot (a v6 record is 23 bytes), small enough that
// a corrupt length field cannot make a frontend allocate gigabytes.
const MaxReplicationPayload = 64 << 20

// replRecordMin is the smallest record encoding (IPv4: 3+4+4 bytes).
const replRecordMin = 11

// ReplHello is the replica's opening frame: the state it already holds.
type ReplHello struct {
	Session uint16
	Serial  uint32
	// HaveState marks a reconnecting replica that can resume from Serial
	// if the primary still retains that window.
	HaveState bool
}

// appendReplHeader appends a frame header for type typ with the given
// payload length.
func appendReplHeader(dst []byte, typ uint8, payloadLen int) []byte {
	var hdr [replHeaderLen]byte
	hdr[0] = replMagic
	hdr[1] = replVersion
	hdr[2] = typ
	binary.BigEndian.PutUint32(hdr[4:], uint32(payloadLen))
	return append(dst, hdr[:]...)
}

// AppendHelloFrame appends an encoded hello frame to dst.
func AppendHelloFrame(dst []byte, h ReplHello) []byte {
	dst = appendReplHeader(dst, ReplTypeHello, 7)
	var body [7]byte
	binary.BigEndian.PutUint16(body[0:], h.Session)
	binary.BigEndian.PutUint32(body[2:], h.Serial)
	if h.HaveState {
		body[6] = 1
	}
	return append(dst, body[:]...)
}

// appendReplRecord appends one VRP record.
func appendReplRecord(dst []byte, v rov.VRP) []byte {
	fam := uint8(4)
	if v.Prefix.Family().Width() == 128 {
		fam = 6
	}
	dst = append(dst, fam, uint8(v.Prefix.Bits()), uint8(v.MaxLength))
	dst = append(dst, v.Prefix.Addr().Bytes()...)
	var asn [4]byte
	binary.BigEndian.PutUint32(asn[:], uint32(v.ASN))
	return append(dst, asn[:]...)
}

// encodedVRPsLen returns the exact encoded size of a record list.
func encodedVRPsLen(vrps []rov.VRP) int {
	n := 0
	for _, v := range vrps {
		if v.Prefix.Family().Width() == 128 {
			n += 23
		} else {
			n += 11
		}
	}
	return n
}

// AppendSnapshotFrame appends an encoded snapshot frame to dst.
func AppendSnapshotFrame(dst []byte, session uint16, serial uint32, vrps []rov.VRP) []byte {
	return appendSnapshotFrame(dst, session, serial, []*chunk{{vrps: vrps}})
}

// appendSnapshotFrame appends the snapshot frame of a chunked set to dst.
func appendSnapshotFrame(dst []byte, session uint16, serial uint32, chunks []*chunk) []byte {
	count, size := 0, 10
	for _, ch := range chunks {
		count += len(ch.vrps)
		size += encodedVRPsLen(ch.vrps)
	}
	dst = appendReplHeader(slices.Grow(dst, replHeaderLen+size), ReplTypeSnapshot, size)
	var hdr [10]byte
	binary.BigEndian.PutUint16(hdr[0:], session)
	binary.BigEndian.PutUint32(hdr[2:], serial)
	binary.BigEndian.PutUint32(hdr[6:], uint32(count))
	dst = append(dst, hdr[:]...)
	for _, ch := range chunks {
		for _, v := range ch.vrps {
			dst = appendReplRecord(dst, v)
		}
	}
	return dst
}

// AppendDeltaFrame appends an encoded delta frame to dst.
func AppendDeltaFrame(dst []byte, serial uint32, announced, withdrawn []rov.VRP) []byte {
	dst = appendReplHeader(dst, ReplTypeDelta, 12+encodedVRPsLen(announced)+encodedVRPsLen(withdrawn))
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:], serial)
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(announced)))
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(withdrawn)))
	dst = append(dst, hdr[:]...)
	for _, v := range announced {
		dst = appendReplRecord(dst, v)
	}
	for _, v := range withdrawn {
		dst = appendReplRecord(dst, v)
	}
	return dst
}

// ReadReplicationFrame reads one frame from r. The declared payload length
// is validated against MaxReplicationPayload before any allocation.
//
//taint:source bytes a replication peer controls
func ReadReplicationFrame(r io.Reader) (typ uint8, payload []byte, err error) {
	var hdr [replHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if hdr[0] != replMagic || hdr[1] != replVersion {
		return 0, nil, fmt.Errorf("rtr: bad replication frame header %x", hdr[:2])
	}
	length := binary.BigEndian.Uint32(hdr[4:])
	if length > MaxReplicationPayload {
		return 0, nil, fmt.Errorf("rtr: replication payload %d exceeds limit %d", length, MaxReplicationPayload)
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[2], payload, nil
}

// ParseReplicationHello decodes a hello payload.
func ParseReplicationHello(payload []byte) (ReplHello, error) {
	if len(payload) > MaxReplicationPayload {
		return ReplHello{}, fmt.Errorf("rtr: hello payload %d exceeds limit %d", len(payload), MaxReplicationPayload)
	}
	if len(payload) != 7 {
		return ReplHello{}, fmt.Errorf("rtr: hello payload %d bytes, want 7", len(payload))
	}
	return ReplHello{
		Session:   binary.BigEndian.Uint16(payload[0:]),
		Serial:    binary.BigEndian.Uint32(payload[2:]),
		HaveState: payload[6]&1 != 0,
	}, nil
}

// parseReplRecords decodes exactly count records from b, which must be
// consumed entirely.
func parseReplRecords(b []byte, count uint32) ([]rov.VRP, []byte, error) {
	// Cheap structural bound before any allocation: count records need at
	// least count*replRecordMin bytes.
	if uint64(count)*replRecordMin > uint64(len(b)) {
		return nil, nil, fmt.Errorf("rtr: record count %d exceeds payload", count)
	}
	out := make([]rov.VRP, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 3 {
			return nil, nil, errors.New("rtr: truncated record")
		}
		fam := ipres.IPv4
		addrLen := 4
		switch b[0] {
		case 4:
		case 6:
			fam, addrLen = ipres.IPv6, 16
		default:
			return nil, nil, fmt.Errorf("rtr: bad record family %d", b[0])
		}
		need := 3 + addrLen + 4
		if len(b) < need {
			return nil, nil, errors.New("rtr: truncated record")
		}
		bits, maxLen := int(b[1]), int(b[2])
		var addr ipres.Addr
		if fam == ipres.IPv4 {
			var a4 [4]byte
			copy(a4[:], b[3:7])
			addr = ipres.AddrFrom4(a4)
		} else {
			var a16 [16]byte
			copy(a16[:], b[3:19])
			addr = ipres.AddrFrom16(a16)
		}
		prefix, err := ipres.PrefixFrom(addr, bits)
		if err != nil {
			return nil, nil, fmt.Errorf("rtr: bad record prefix: %w", err)
		}
		if maxLen < bits || maxLen > fam.Width() {
			return nil, nil, fmt.Errorf("rtr: record max length %d out of range", maxLen)
		}
		asn := ipres.ASN(binary.BigEndian.Uint32(b[3+addrLen:]))
		out = append(out, rov.VRP{Prefix: prefix, MaxLength: maxLen, ASN: asn})
		b = b[need:]
	}
	return out, b, nil
}

// ParseReplicationSnapshot decodes a snapshot payload.
func ParseReplicationSnapshot(payload []byte) (session uint16, serial uint32, vrps []rov.VRP, err error) {
	if len(payload) > MaxReplicationPayload {
		return 0, 0, nil, fmt.Errorf("rtr: snapshot payload %d exceeds limit %d", len(payload), MaxReplicationPayload)
	}
	if len(payload) < 10 {
		return 0, 0, nil, errors.New("rtr: short snapshot payload")
	}
	session = binary.BigEndian.Uint16(payload[0:])
	serial = binary.BigEndian.Uint32(payload[2:])
	count := binary.BigEndian.Uint32(payload[6:])
	vrps, rest, err := parseReplRecords(payload[10:], count)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(rest) != 0 {
		return 0, 0, nil, fmt.Errorf("rtr: %d trailing snapshot bytes", len(rest))
	}
	return session, serial, vrps, nil
}

// ParseReplicationDelta decodes a delta payload.
func ParseReplicationDelta(payload []byte) (serial uint32, announced, withdrawn []rov.VRP, err error) {
	if len(payload) > MaxReplicationPayload {
		return 0, nil, nil, fmt.Errorf("rtr: delta payload %d exceeds limit %d", len(payload), MaxReplicationPayload)
	}
	if len(payload) < 12 {
		return 0, nil, nil, errors.New("rtr: short delta payload")
	}
	serial = binary.BigEndian.Uint32(payload[0:])
	nAnn := binary.BigEndian.Uint32(payload[4:])
	nWd := binary.BigEndian.Uint32(payload[8:])
	body := payload[12:]
	// Joint structural bound before either list allocates.
	if (uint64(nAnn)+uint64(nWd))*replRecordMin > uint64(len(body)) {
		return 0, nil, nil, fmt.Errorf("rtr: record counts %d+%d exceed payload", nAnn, nWd)
	}
	announced, body, err = parseReplRecords(body, nAnn)
	if err != nil {
		return 0, nil, nil, err
	}
	withdrawn, body, err = parseReplRecords(body, nWd)
	if err != nil {
		return 0, nil, nil, err
	}
	if len(body) != 0 {
		return 0, nil, nil, fmt.Errorf("rtr: %d trailing delta bytes", len(body))
	}
	return serial, announced, withdrawn, nil
}

// ReplicationServer streams a cache's state to replica frontends: one
// snapshot (or a delta resume) on connect, then every delta as it happens.
// Replicas are few (frontend count, not router count), so frames are
// encoded per connection from the shared delta history.
type ReplicationServer struct {
	cache  *Cache
	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{}

	// WriteTimeout bounds one frame write to a replica (0: default 30s).
	// A stalled replica is disconnected, not buffered for. Set before
	// Listen.
	WriteTimeout time.Duration

	resumptions atomic.Uint64
	snapshots   atomic.Uint64
}

// NewReplicationServer creates a replication feed over cache.
func NewReplicationServer(cache *Cache) *ReplicationServer {
	return &ReplicationServer{cache: cache, closed: make(chan struct{})}
}

// Resumptions reports replicas that resumed from their serial without a
// snapshot.
func (s *ReplicationServer) Resumptions() uint64 { return s.resumptions.Load() }

// Snapshots reports full snapshots served to replicas.
func (s *ReplicationServer) Snapshots() uint64 { return s.snapshots.Load() }

func (s *ReplicationServer) writeTimeout() time.Duration {
	if s.WriteTimeout > 0 {
		return s.WriteTimeout
	}
	return writeTimeout
}

// Listen binds addr and starts serving; it returns the bound address.
func (s *ReplicationServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rtr: replication listen: %w", err)
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
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.handle(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the replication server.
func (s *ReplicationServer) Close() error {
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

func (s *ReplicationServer) handle(conn net.Conn) {
	defer conn.Close()
	// The hello must arrive promptly; after it, the replica only reads.
	if conn.SetReadDeadline(time.Now().Add(s.writeTimeout())) != nil {
		return
	}
	r := bufio.NewReaderSize(conn, 512)
	typ, payload, err := ReadReplicationFrame(r)
	if err != nil || typ != ReplTypeHello {
		return
	}
	hello, err := ParseReplicationHello(payload)
	if err != nil {
		return
	}
	if conn.SetReadDeadline(time.Time{}) != nil {
		return
	}

	writeFrame := func(frame []byte) bool {
		if conn.SetWriteDeadline(time.Now().Add(s.writeTimeout())) != nil {
			return false
		}
		_, err := conn.Write(frame)
		return err == nil
	}

	// Opening state: resume from the replica's serial when the session
	// matches and the window is retained; otherwise a full snapshot.
	var lastSent uint32
	resumed := false
	if hello.HaveState && hello.Session == s.cache.Session() {
		if entries, current, ok := s.cache.deltaEntries(hello.Serial); ok {
			for _, d := range entries {
				if !writeFrame(AppendDeltaFrame(nil, d.serial, d.announced, d.withdrawn)) {
					return
				}
			}
			lastSent = current
			resumed = true
			s.resumptions.Add(1)
			if met := s.cache.met.Load(); met != nil {
				met.replResumptions.Inc()
			}
		}
	}
	if !resumed {
		chunks, serial, session := s.cache.snapshot()
		if !writeFrame(appendSnapshotFrame(nil, session, serial, chunks)) {
			return
		}
		lastSent = serial
		s.snapshots.Add(1)
		if met := s.cache.met.Load(); met != nil {
			met.replSnapshots.Inc()
		}
	}

	// Follow the cache: on every notify, stream the deltas the replica has
	// not seen; if the window aged out (a severely lagged replica), fall
	// back to a fresh snapshot rather than disconnecting.
	sub := s.cache.subscribe("repl:"+conn.RemoteAddr().String(), nil)
	defer s.cache.unsubscribe(sub)

	// A reader goroutine watches for peer disconnect (replicas send
	// nothing after the hello, so any read result means the conn is done).
	connDone := make(chan struct{})
	go func() {
		defer close(connDone)
		var buf [1]byte
		for {
			if _, err := conn.Read(buf[:]); err != nil {
				return
			}
		}
	}()

	for {
		select {
		case <-s.closed:
			return
		case <-connDone:
			return
		case <-sub.wake:
			_ = sub.pending.Load() // coalesced; we stream from lastSent regardless
			entries, current, ok := s.cache.deltaEntries(lastSent)
			if !ok {
				chunks, serial, session := s.cache.snapshot()
				if !writeFrame(appendSnapshotFrame(nil, session, serial, chunks)) {
					return
				}
				lastSent = serial
				s.snapshots.Add(1)
				if met := s.cache.met.Load(); met != nil {
					met.replSnapshots.Inc()
				}
				continue
			}
			for _, d := range entries {
				if !writeFrame(AppendDeltaFrame(nil, d.serial, d.announced, d.withdrawn)) {
					return
				}
			}
			lastSent = current
		}
	}
}
