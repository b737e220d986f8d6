// Package ws is a minimal pure-stdlib WebSocket (RFC 6455)
// implementation, built for the serving tier's persistent duplex
// streaming ingest: the HTTP/1.1 Upgrade handshake on both ends
// (Accept for servers, Dial for clients), a frame reader/writer with
// client-side masking, fragmentation and control frames, and a
// close-handshake state machine.
//
// The surface is deliberately small — text/binary messages, ping/pong,
// clean closes, per-connection payload caps — because the EchoWrite
// stream protocol needs nothing more, and every line here is on the
// untrusted-input path that FuzzFrameRead hammers.
package ws

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
	"unicode/utf8"
)

// MessageType distinguishes the two data frame kinds.
type MessageType int

const (
	// Text messages carry UTF-8 payloads (enforced on read).
	Text MessageType = opText
	// Binary messages carry arbitrary bytes.
	Binary MessageType = opBinary
)

// Close status codes (RFC 6455 §7.4.1).
const (
	StatusNormalClosure   = 1000
	StatusGoingAway       = 1001
	StatusProtocolError   = 1002
	StatusUnsupportedData = 1003
	StatusNoStatus        = 1005 // never sent on the wire
	StatusInvalidPayload  = 1007
	StatusPolicyViolation = 1008
	StatusMessageTooBig   = 1009
	StatusInternalError   = 1011
)

// DefaultMaxPayload caps frames and reassembled messages when
// Conn.MaxPayload is zero (1 MiB — matching the order of the serving
// tier's per-feed chunk caps).
const DefaultMaxPayload = 1 << 20

// ErrCloseSent is returned by writes attempted after the close frame
// went out: RFC 6455 forbids data frames after close.
var ErrCloseSent = errors.New("ws: close frame already sent")

// CloseError surfaces the peer's close frame from ReadMessage. Code is
// StatusNoStatus when the close payload was empty.
type CloseError struct {
	Code   int
	Reason string
}

func (e *CloseError) Error() string {
	if e.Reason == "" {
		return fmt.Sprintf("ws: peer closed connection (status %d)", e.Code)
	}
	return fmt.Sprintf("ws: peer closed connection (status %d: %s)", e.Code, e.Reason)
}

// Conn is one WebSocket connection. Reads must come from a single
// goroutine; writes are mutex-serialized, so any number of goroutines
// (a read loop writing its events, a keepalive ticker, the reader
// auto-replying to pings) may write concurrently.
type Conn struct {
	conn   net.Conn
	br     *bufio.Reader
	client bool // mask outgoing frames, reject masked incoming ones

	// MaxPayload caps a single frame's declared payload and a
	// fragmented message's reassembled size (0 = DefaultMaxPayload).
	// Set before the first ReadMessage; oversized input fails with
	// ErrTooLarge before any allocation.
	MaxPayload int64
	// FragmentSize, when positive, splits outgoing data messages into
	// continuation frames of at most this many payload bytes. Zero
	// writes every message as a single frame. Set before first use.
	FragmentSize int

	wmu       sync.Mutex
	bw        *bufio.Writer // guarded by wmu
	scratch   []byte        // guarded by wmu
	sentClose bool          // guarded by wmu

	// Read-side state; single-reader by contract, so unguarded.
	inMessage bool
}

// newConn wraps an upgraded network connection. br already holds any
// bytes buffered past the handshake.
func newConn(nc net.Conn, br *bufio.Reader, bw *bufio.Writer, client bool) *Conn {
	return &Conn{conn: nc, br: br, bw: bw, client: client}
}

// maxPayload resolves the incoming payload cap.
func (c *Conn) maxPayload() int64 {
	if c.MaxPayload > 0 {
		return c.MaxPayload
	}
	return DefaultMaxPayload
}

// ReadMessage blocks for the next complete data message, reassembling
// fragments and servicing control frames in between: pings are answered
// with pongs carrying the same payload, pongs are swallowed, and a
// close frame is echoed (completing the close handshake) and surfaced
// as a *CloseError.
func (c *Conn) ReadMessage() (MessageType, []byte, error) {
	var (
		typ MessageType
		buf []byte
	)
	maxP := c.maxPayload()
	for {
		f, err := readFrame(c.br, maxP, !c.client)
		if err != nil {
			return 0, nil, err
		}
		switch f.opcode {
		case opPing:
			if err := c.writeControl(opPong, f.payload); err != nil {
				return 0, nil, err
			}
			continue
		case opPong:
			continue
		case opClose:
			code, reason, err := parseClosePayload(f.payload)
			if err != nil {
				return 0, nil, err
			}
			// Echo the close once so the peer's handshake completes even
			// when we never initiated one; WriteClose is a no-op if our
			// side already sent close.
			echo := code
			if echo == StatusNoStatus {
				echo = StatusNormalClosure
			}
			_ = c.WriteClose(echo, "")
			return 0, nil, &CloseError{Code: code, Reason: reason}
		case opContinuation:
			if !c.inMessage {
				return 0, nil, fmt.Errorf("%w: continuation frame outside a message", ErrProtocol)
			}
			if int64(len(buf))+int64(len(f.payload)) > maxP {
				return 0, nil, fmt.Errorf("%w: fragmented message over %d bytes", ErrTooLarge, maxP)
			}
			buf = append(buf, f.payload...)
		default: // opText, opBinary
			if c.inMessage {
				return 0, nil, fmt.Errorf("%w: new data frame inside a fragmented message", ErrProtocol)
			}
			c.inMessage = true
			typ = MessageType(f.opcode)
			buf = f.payload
		}
		if f.fin {
			c.inMessage = false
			if typ == Text && !utf8.Valid(buf) {
				return 0, nil, fmt.Errorf("%w: invalid UTF-8 in text message", ErrProtocol)
			}
			return typ, buf, nil
		}
	}
}

// parseClosePayload splits a close frame body into status code and
// reason. An empty body is legal (StatusNoStatus); a 1-byte body is a
// protocol error, as is a non-UTF-8 reason.
func parseClosePayload(p []byte) (int, string, error) {
	switch {
	case len(p) == 0:
		return StatusNoStatus, "", nil
	case len(p) == 1:
		return 0, "", fmt.Errorf("%w: 1-byte close payload", ErrProtocol)
	}
	code := int(p[0])<<8 | int(p[1])
	reason := p[2:]
	if !utf8.Valid(reason) {
		return 0, "", fmt.Errorf("%w: invalid UTF-8 in close reason", ErrProtocol)
	}
	return code, string(reason), nil
}

// WriteMessage writes one data message, fragmented per FragmentSize.
func (c *Conn) WriteMessage(typ MessageType, data []byte) error {
	if typ != Text && typ != Binary {
		return fmt.Errorf("ws: invalid message type %d", typ)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.sentClose {
		return ErrCloseSent
	}
	frag := c.FragmentSize
	if frag <= 0 || frag >= len(data) || len(data) == 0 {
		return c.writeFrameLocked(byte(typ), true, data)
	}
	opcode := byte(typ)
	for off := 0; off < len(data); off += frag {
		end := min(off+frag, len(data))
		fin := end == len(data)
		if err := c.writeFrameLocked(opcode, fin, data[off:end]); err != nil {
			return err
		}
		opcode = opContinuation
	}
	return nil
}

// WritePing sends a ping control frame (payload ≤ 125 bytes).
func (c *Conn) WritePing(payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.sentClose {
		return ErrCloseSent
	}
	return c.writeFrameLocked(opPing, true, payload)
}

// writeControl sends a control frame, silently skipping it if the close
// frame is already out (a pong racing a close is not an error).
func (c *Conn) writeControl(opcode byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.sentClose {
		return nil
	}
	return c.writeFrameLocked(opcode, true, payload)
}

// WriteClose sends the close frame once; later calls (and later data
// writes) are no-ops per the close-handshake state machine. It does not
// close the underlying connection — pair with reading until CloseError
// (or use CloseHandshake).
func (c *Conn) WriteClose(code int, reason string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.sentClose {
		return nil
	}
	payload := make([]byte, 2, 2+len(reason))
	payload[0], payload[1] = byte(code>>8), byte(code)
	payload = append(payload, reason...)
	if len(payload) > maxControlPayload {
		payload = payload[:maxControlPayload]
	}
	err := c.writeFrameLocked(opClose, true, payload)
	c.sentClose = true
	return err
}

// writeFrameLocked writes one frame through the buffered writer and
// flushes. Callers hold wmu.
//
// ew:holds c.wmu — every write funnels through here with the lock held.
func (c *Conn) writeFrameLocked(opcode byte, fin bool, payload []byte) error {
	var err error
	c.scratch, err = writeFrame(c.bw, opcode, fin, c.client, payload, c.scratch)
	if err != nil {
		return err
	}
	return c.bw.Flush()
}

// CloseHandshake performs an orderly shutdown: send the close frame,
// read (discarding data) until the peer's close frame or an error, then
// close the underlying connection. deadline bounds the drain so a
// vanished peer cannot park the caller.
func (c *Conn) CloseHandshake(code int, reason string, deadline time.Duration) error {
	werr := c.WriteClose(code, reason)
	_ = c.conn.SetReadDeadline(time.Now().Add(deadline))
	for {
		if _, _, err := c.ReadMessage(); err != nil {
			break // CloseError on a clean handshake; any error ends the drain
		}
	}
	cerr := c.conn.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// Close tears down the underlying connection immediately, without a
// close handshake. Safe to call concurrently with reads and writes —
// both sides then fail fast, which is how owners unwind their pump and
// reader goroutines.
func (c *Conn) Close() error { return c.conn.Close() }

// SetReadDeadline bounds future reads (zero time clears it).
func (c *Conn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// SetWriteDeadline bounds future writes (zero time clears it).
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.conn.SetWriteDeadline(t) }
