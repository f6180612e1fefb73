// Package rtr implements the RPKI-to-Router protocol (RFC 6810): the
// channel over which a relying-party cache pushes validated ROA payloads
// (VRPs) to BGP routers. This is the last link in the paper's Figure 1
// dependency chain — whatever the RPKI says, it only affects BGP once it
// crosses this protocol into the router's origin-validation table.
//
// The implementation covers the full RFC 6810 state machine: reset and
// serial queries, incremental updates with a bounded delta history, session
// IDs, cache reset, serial notify, and error reports, over plain TCP.
package rtr

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/ipres"
	"repro/internal/rov"
)

// Version is the protocol version implemented (RFC 6810).
const Version = 0

// PDU type codes per RFC 6810 section 5.
const (
	TypeSerialNotify  = 0
	TypeSerialQuery   = 1
	TypeResetQuery    = 2
	TypeCacheResponse = 3
	TypeIPv4Prefix    = 4
	TypeIPv6Prefix    = 6
	TypeEndOfData     = 7
	TypeCacheReset    = 8
	TypeErrorReport   = 10
)

// Error codes per RFC 6810 section 10.
const (
	ErrCorruptData        = 0
	ErrInternal           = 1
	ErrNoDataAvailable    = 2
	ErrInvalidRequest     = 3
	ErrUnsupportedVersion = 4
	ErrUnsupportedPDU     = 5
	ErrUnknownWithdrawal  = 6
	ErrDuplicateAnnounce  = 7
)

// Prefix PDU flags.
const (
	// FlagAnnounce marks an announced VRP; its absence marks a withdrawal.
	FlagAnnounce = 1
)

// PDU is one protocol data unit.
type PDU struct {
	Type    uint8
	Session uint16 // session ID (or error code for ErrorReport)
	Serial  uint32 // SerialNotify, SerialQuery, EndOfData
	Flags   uint8  // prefix PDUs
	VRP     rov.VRP
	ErrText string // ErrorReport
}

const headerLen = 8

// Marshal encodes the PDU into the frame a router acts on.
func (p *PDU) Marshal() ([]byte, error) {
	switch p.Type {
	case TypeSerialNotify, TypeSerialQuery, TypeEndOfData:
		buf := make([]byte, headerLen+4)
		putHeader(buf, p.Type, p.Session, uint32(len(buf)))
		binary.BigEndian.PutUint32(buf[headerLen:], p.Serial)
		return buf, nil
	case TypeResetQuery, TypeCacheResponse, TypeCacheReset:
		buf := make([]byte, headerLen)
		putHeader(buf, p.Type, p.Session, headerLen)
		return buf, nil
	case TypeIPv4Prefix, TypeIPv6Prefix:
		if prefixPDUType(p.VRP) != p.Type {
			return nil, fmt.Errorf("rtr: prefix PDU type %d with %v prefix", p.Type, p.VRP.Prefix.Family())
		}
		if !encodable(p.VRP) {
			return nil, fmt.Errorf("rtr: no prefix PDU can carry %v (invalid prefix or max length %d out of range)", p.VRP.Prefix, p.VRP.MaxLength)
		}
		return appendPrefixPDU(make([]byte, 0, prefixPDULen(p.VRP)), p.Flags, p.VRP), nil
	case TypeErrorReport:
		text := []byte(p.ErrText)
		// Encapsulated PDU omitted (length 0) + error text.
		buf := make([]byte, headerLen+4+4+len(text))
		putHeader(buf, p.Type, p.Session, uint32(len(buf)))
		binary.BigEndian.PutUint32(buf[headerLen:], 0)
		binary.BigEndian.PutUint32(buf[headerLen+4:], uint32(len(text)))
		copy(buf[headerLen+8:], text)
		return buf, nil
	}
	return nil, fmt.Errorf("rtr: cannot marshal PDU type %d", p.Type)
}

func putHeader(buf []byte, typ uint8, session uint16, length uint32) {
	buf[0] = Version
	buf[1] = typ
	binary.BigEndian.PutUint16(buf[2:], session)
	binary.BigEndian.PutUint32(buf[4:], length)
}

// encodable reports whether v fits a prefix PDU: a valid prefix and a
// maxLength within [prefix length, family width]. Anything else would be
// truncated to a byte on the wire and rejected by every router that reads it.
func encodable(v rov.VRP) bool {
	return v.Prefix.IsValid() && v.MaxLength >= v.Prefix.Bits() && v.MaxLength <= v.Prefix.Family().Width()
}

// prefixPDUType is the PDU type that carries v.
func prefixPDUType(v rov.VRP) uint8 {
	if v.Prefix.Family() == ipres.IPv6 {
		return TypeIPv6Prefix
	}
	return TypeIPv4Prefix
}

// prefixPDULen is the wire size of v's prefix PDU.
func prefixPDULen(v rov.VRP) int {
	if v.Prefix.Family() == ipres.IPv6 {
		return headerLen + 24
	}
	return headerLen + 12
}

// appendPrefixPDU appends v's prefix PDU to buf without allocating beyond
// buf's growth. It is the one prefix encoder; v must be encodable.
func appendPrefixPDU(buf []byte, flags uint8, v rov.VRP) []byte {
	buf = append(buf, Version, prefixPDUType(v), 0, 0, 0, 0, 0, uint8(prefixPDULen(v)),
		flags, uint8(v.Prefix.Bits()), uint8(v.MaxLength), 0)
	if v.Prefix.Family() == ipres.IPv6 {
		a := v.Prefix.Addr().As16()
		buf = append(buf, a[:]...)
	} else {
		a := v.Prefix.Addr().As4()
		buf = append(buf, a[:]...)
	}
	return binary.BigEndian.AppendUint32(buf, uint32(v.ASN))
}

// maxPDULen bounds a single PDU read (error text included).
const maxPDULen = 64 << 10

// pduReader decodes PDUs from one stream. Header and fixed-size bodies land
// in buf and the decoded PDU in pdu, both reused from call to call, so a
// 200,000-prefix response costs no allocation per PDU; only an Error Report
// (variable length, ends the session) allocates its body.
type pduReader struct {
	r   io.Reader
	buf [headerLen + 24]byte
	pdu PDU
}

// ReadPDU reads and decodes one PDU from r: bytes a router or a spoofed
// peer sends on the RTR socket.
func ReadPDU(r io.Reader) (*PDU, error) {
	d := pduReader{r: r}
	p, err := d.next()
	if err != nil {
		return nil, err
	}
	out := *p // the caller's PDU must not pin the reader
	return &out, nil
}

// next reads and decodes one PDU. The result is valid until the next call.
func (d *pduReader) next() (*PDU, error) {
	header := d.buf[:headerLen]
	if _, err := io.ReadFull(d.r, header); err != nil {
		return nil, err
	}
	if header[0] != Version {
		return nil, fmt.Errorf("rtr: unsupported version %d", header[0])
	}
	length := binary.BigEndian.Uint32(header[4:])
	if length < headerLen || length > maxPDULen {
		return nil, fmt.Errorf("rtr: PDU length %d out of range", length)
	}
	p := &d.pdu
	*p = PDU{Type: header[1], Session: binary.BigEndian.Uint16(header[2:])}
	var body []byte
	if n := int(length - headerLen); n <= len(d.buf)-headerLen {
		body = d.buf[headerLen : headerLen+n]
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(d.r, body); err != nil {
		return nil, err
	}
	switch p.Type {
	case TypeSerialNotify, TypeSerialQuery, TypeEndOfData:
		if len(body) != 4 {
			return nil, fmt.Errorf("rtr: serial PDU body %d bytes", len(body))
		}
		p.Serial = binary.BigEndian.Uint32(body)
	case TypeResetQuery, TypeCacheResponse, TypeCacheReset:
		if len(body) != 0 {
			return nil, fmt.Errorf("rtr: unexpected body for type %d", p.Type)
		}
	case TypeIPv4Prefix:
		if len(body) != 12 {
			return nil, fmt.Errorf("rtr: IPv4 prefix body %d bytes", len(body))
		}
		vrp, flags, err := decodePrefixBody(ipres.IPv4, body)
		if err != nil {
			return nil, err
		}
		p.VRP, p.Flags = vrp, flags
	case TypeIPv6Prefix:
		if len(body) != 24 {
			return nil, fmt.Errorf("rtr: IPv6 prefix body %d bytes", len(body))
		}
		vrp, flags, err := decodePrefixBody(ipres.IPv6, body)
		if err != nil {
			return nil, err
		}
		p.VRP, p.Flags = vrp, flags
	case TypeErrorReport:
		if len(body) < 8 {
			return nil, fmt.Errorf("rtr: short error report")
		}
		// All length arithmetic in uint64: the declared encapsulated-PDU
		// length is attacker-controlled, and summing it in uint32 wraps
		// (encLen near 2^32 passed the old bounds check and then sliced far
		// past the body — a remote panic found by FuzzRTRRead).
		encLen := uint64(binary.BigEndian.Uint32(body))
		if 4+encLen+4 > uint64(len(body)) {
			return nil, fmt.Errorf("rtr: bad error report lengths")
		}
		textOff := 4 + encLen
		textLen := uint64(binary.BigEndian.Uint32(body[textOff:]))
		if textOff+4+textLen > uint64(len(body)) {
			return nil, fmt.Errorf("rtr: bad error text length")
		}
		p.ErrText = string(body[textOff+4 : textOff+4+textLen])
	default:
		return nil, fmt.Errorf("rtr: unsupported PDU type %d", p.Type)
	}
	return p, nil
}

func decodePrefixBody(fam ipres.Family, body []byte) (rov.VRP, uint8, error) {
	flags := body[0]
	bits := int(body[1])
	maxLen := int(body[2])
	addrLen := fam.Width() / 8
	var addr ipres.Addr
	if fam == ipres.IPv4 {
		var b4 [4]byte
		copy(b4[:], body[4:4+addrLen])
		addr = ipres.AddrFrom4(b4)
	} else {
		var b16 [16]byte
		copy(b16[:], body[4:4+addrLen])
		addr = ipres.AddrFrom16(b16)
	}
	asn := ipres.ASN(binary.BigEndian.Uint32(body[4+addrLen:]))
	prefix, err := ipres.PrefixFrom(addr, bits)
	if err != nil {
		return rov.VRP{}, 0, fmt.Errorf("rtr: bad prefix: %w", err)
	}
	if maxLen < bits || maxLen > fam.Width() {
		return rov.VRP{}, 0, fmt.Errorf("rtr: max length %d out of range", maxLen)
	}
	return rov.VRP{Prefix: prefix, MaxLength: maxLen, ASN: asn}, flags, nil
}

// WritePDU marshals and writes one PDU.
func WritePDU(w io.Writer, p *PDU) error {
	buf, err := p.Marshal()
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}
