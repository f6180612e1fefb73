package repo

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The rsynclite wire protocol. All requests and response headers are single
// CRLF-free LF-terminated lines of printable ASCII; file contents are raw
// bytes with a declared length. This stands in for the rsync protocol the
// RPKI mandates (RFC 6481 section 2.2): the paper's results depend only on
// which objects a relying party can retrieve over TCP/IP, not on rsync's
// delta encoding.
//
//	Request:  LIST <module>
//	Response: OK <n> <token>    then n lines: <name> <size> <sha256-hex>
//
//	Request:  GET <module> <name>
//	Response: OK <size>         then <size> raw bytes
//
//	Request:  VERSIONS
//	Response: OK <n>            then n lines: <module> <token>
//
//	Any error: ERR <message>
//
// A listing line is exactly three fields separated by single spaces: a name
// validName accepts, a decimal size of at most MaxObjectSize, and the 64
// lower-case hex digits of the SHA-256 of the bytes a GET would serve. Names
// are unique within a listing. The digests are the delta behavior that makes
// rsync rsync: a client keeps every object it holds at the listed size and
// digest and GETs only the rest, and it holds the repository to its listing —
// a GET body that does not hash to the listed digest fails the sync.
//
// Tokens. A token is 1 to maxTokenLen printable, space-free ASCII bytes the
// server chose and the client only ever compares for equality. The server
// promises one thing: two replies that carry the same token for a module
// describe the same listing, byte for byte — so a client that holds the
// snapshot a listing with token T produced, and is told by VERSIONS that the
// module is still at T, holds what a LIST would describe and need not ask. A
// token is never repeated for other content: not after the store changes, not
// after the module is registered again, not after the server restarts (it
// carries a per-boot nonce). A VERSIONS line is exactly two fields separated
// by one space, modules are unique within a reply, and a server lists only
// the modules it vouches for: it may leave any out (this one leaves out every
// module with a fault plan that does not say what to vouch), and a server
// that lacks the verb answers ERR and hangs up, as for any unknown command.
// A LIST header may lack its token (a server that vouches for nothing); such
// a listing is simply never skipped. What a token does not promise: that the
// content is current, valid or complete. "Unchanged" is the cheapest lie a
// repository can tell, so the client treats VERSIONS as a hint with an audit
// behind it (feed.go, DESIGN.md §6), never as proof.
//
// Requests may be pipelined: a client may write up to pipelineWindow request
// lines before reading, the server answers them strictly in request order
// (flushing each reply), and the client writes its next window only after
// reading every reply of the previous one — so neither side can block
// writing while the other blocks writing. Deadlines are per reply, not per
// window: the client re-arms Timeout before each reply it reads, the server
// re-arms ReadTimeout for each request it serves. When a connection dies
// mid-window the replies already read stand, and the requests that were
// written but not answered were never acted on by anyone: the client asks
// them again on a fresh connection.
//
// Connection lifetime. A connection is not bound to a module: every request
// line names its module, and requests for different modules of one server may
// follow each other on one connection. Either side may close it between
// exchanges, at any time: the server after ReadTimeout of silence (and at
// Close, at once), the client whenever it likes. A client may park a
// connection — keep it open, unused, for a later fetch of any module it knows
// to sit behind the same peer — only if every exchange on it ended at the
// protocol level (an OK reply read to its last announced byte, or a one-line
// ERR), nothing is buffered beyond that, and the bytes received were what the
// listing promised; a reply it could not parse, a body that contradicts its
// listing, a transport error or a cancelled context all close it. One fetch
// owns a connection at a time: nothing is multiplexed. A parked connection
// the server has meanwhile closed looks, to its next user, like any dropped
// connection, and costs what one costs: a counted retry, on a fresh dial.
const (
	maxLineLen = 4096
	// MaxObjectSize bounds a single fetched object (defense against a
	// malicious repository streaming forever).
	MaxObjectSize = 8 << 20
	// MaxListEntries bounds a module listing.
	MaxListEntries = 1 << 20
	// maxFeedEntries bounds a VERSIONS reply.
	maxFeedEntries = 1 << 20
	// maxTokenLen bounds a version token.
	maxTokenLen = 128
)

// URI identifies a module on an rsynclite server, e.g.
// "rsynclite://127.0.0.1:8873/sprint".
type URI struct {
	// Host is the "host:port" address of the server.
	Host string
	// Module is the publication point name.
	Module string
}

// ParseURI parses "rsynclite://host:port/module[/object]". The optional
// trailing object name is returned separately.
func ParseURI(s string) (URI, string, error) {
	const scheme = "rsynclite://"
	if !strings.HasPrefix(s, scheme) {
		return URI{}, "", fmt.Errorf("repo: URI %q lacks %s scheme", s, scheme)
	}
	rest := strings.TrimSuffix(s[len(scheme):], "/")
	parts := strings.SplitN(rest, "/", 3)
	if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
		return URI{}, "", fmt.Errorf("repo: URI %q needs host/module", s)
	}
	uri := URI{Host: parts[0], Module: parts[1]}
	if len(parts) == 3 {
		return uri, parts[2], nil
	}
	return uri, "", nil
}

// String renders the URI.
func (u URI) String() string {
	return "rsynclite://" + u.Host + "/" + u.Module
}

// ObjectURI renders the URI of an object within the module.
func (u URI) ObjectURI(name string) string {
	return u.String() + "/" + name
}

// readLineBytes reads one LF-terminated line, enforcing the length cap while
// reading, and returns it without the LF. The cap must be applied
// incrementally: ReadString would buffer an entire newline-free stream before
// a post-hoc length check could reject it, handing a malicious server an
// unbounded-memory primitive. The returned bytes usually alias r's buffer:
// they are valid only until the next read from r.
func readLineBytes(r *bufio.Reader) ([]byte, error) {
	var buf []byte
	for {
		chunk, err := r.ReadSlice('\n')
		if len(buf)+len(chunk) > maxLineLen {
			return nil, fmt.Errorf("repo: protocol line too long (> %d bytes)", maxLineLen)
		}
		if err == nil {
			if buf != nil {
				chunk = append(buf, chunk...)
			}
			return chunk[:len(chunk)-1], nil
		}
		if err == bufio.ErrBufferFull {
			buf = append(buf, chunk...)
			continue
		}
		return nil, err
	}
}

// readLine is readLineBytes with the line copied out of r's buffer.
func readLine(r *bufio.Reader) (string, error) {
	line, err := readLineBytes(r)
	return string(line), err
}

// writeLine writes one LF-terminated line.
func writeLine(w io.Writer, format string, args ...any) error {
	_, err := fmt.Fprintf(w, format+"\n", args...)
	return err
}

// errRejected marks a well-formed ERR reply: the server read the request,
// said no in one line, and the stream sits at the next reply.
var errRejected = errors.New("server error")

// parseOKCount parses an "OK <n>" header with a bound. Its errors are
// permanent: the server completed the exchange, retrying cannot change the
// answer.
func parseOKCount(line string, bound int) (int, error) {
	fields := strings.Fields(line)
	if len(fields) != 2 || fields[0] != "OK" {
		if len(fields) > 0 && fields[0] == "ERR" {
			return 0, permanent(fmt.Errorf("repo: %w: %s", errRejected, strings.TrimPrefix(line, "ERR ")))
		}
		return 0, permanent(fmt.Errorf("repo: malformed response %q", line))
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 || n > bound {
		return 0, permanent(fmt.Errorf("repo: count %q out of range", fields[1]))
	}
	return n, nil
}

// parseListHeader parses a LIST reply header, "OK <n>" or "OK <n> <token>",
// and returns the token ("" when the server sent none).
func parseListHeader(line string) (int, string, error) {
	token := ""
	if fields := strings.Fields(line); len(fields) == 3 && fields[0] == "OK" {
		if token = fields[2]; !validToken(token) {
			return 0, "", permanent(fmt.Errorf("repo: malformed token in response %q", line))
		}
		line = "OK " + fields[1]
	}
	n, err := parseOKCount(line, MaxListEntries)
	return n, token, err
}

// validToken reports whether s may stand where the grammar wants a token.
func validToken(s string) bool {
	if s == "" || len(s) > maxTokenLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] >= 0x7F {
			return false
		}
	}
	return true
}

// ObjectInfo is what a listing says about one object.
type ObjectInfo struct {
	// Size is the object's size in bytes.
	Size int
	// Hash is the SHA-256 of the content as served (faults included).
	Hash [sha256.Size]byte
}

// appendListEntry appends the listing line for one object, LF included.
func appendListEntry(dst []byte, name string, info ObjectInfo) []byte {
	dst = append(append(dst, name...), ' ')
	dst = append(strconv.AppendInt(dst, int64(info.Size), 10), ' ')
	return append(hex.AppendEncode(dst, info.Hash[:]), '\n')
}

// parseListEntry parses one listing line, strictly: anything but the three
// fields the grammar above allows is a permanent error. It allocates only
// the returned name, so a listing key never pins the line it was read from.
func parseListEntry(line []byte) (string, ObjectInfo, error) {
	malformed := func(what string) (string, ObjectInfo, error) {
		return "", ObjectInfo{}, permanent(fmt.Errorf("repo: %s in LIST entry %q", what, line))
	}
	nameB, rest, _ := bytes.Cut(line, []byte{' '})
	sizeB, hashB, _ := bytes.Cut(rest, []byte{' '})
	name := string(nameB)
	if !validName(name) {
		return malformed("bad name")
	}
	// ParseUint admits no sign; the digest check admits no upper case.
	size, err := strconv.ParseUint(string(sizeB), 10, 32)
	if err != nil || size > MaxObjectSize {
		return malformed("bad size")
	}
	info := ObjectInfo{Size: int(size)}
	if len(hashB) != hex.EncodedLen(len(info.Hash)) || bytes.ContainsAny(hashB, "ABCDEF") {
		return malformed("bad digest")
	}
	if _, err := hex.Decode(info.Hash[:], hashB); err != nil {
		return malformed("bad digest")
	}
	return name, info, nil
}

// validName rejects names that could escape the module namespace or break
// the line protocol.
func validName(name string) bool {
	if name == "" || len(name) > 512 {
		return false
	}
	for _, r := range name {
		if r <= ' ' || r == 0x7F || r == '/' || r == '\\' {
			return false
		}
	}
	return name != "." && name != ".."
}
