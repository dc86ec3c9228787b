// Package wire implements hhwire, the persistent binary ingest
// protocol of hhserverd: length-prefixed frames over raw TCP for
// reliable wire-speed ingest, and the same frame as a self-contained
// UDP datagram for lossy telemetry. The HTTP/JSON surface stays the
// control plane (create, query, merge, metrics); hhwire exists only
// for the one verb that dominates serving traffic — pushing batches of
// keys into a named summary — and strips it to the minimum: no
// per-request headers, no response unless asked, one persistent
// connection reused for millions of frames.
//
// docs/WIRE.md is the normative byte-level specification; this package
// and that document must agree exactly. The v1 frame:
//
//	offset  size  field
//	0       4     magic "HHWB"
//	4       1     version (0x01)
//	5       1     flags (bit 0 ACK; bit 1 COUNTED; bits 2-7 reserved,
//	              must be zero)
//	6       2     name length N, uint16 little-endian, 1..128
//	8       4     body length B, uint32 little-endian, 0..max body
//	12      N     summary name (the registry name, UTF-8)
//	12+N    B     body: uvarint-length-prefixed key records — exactly
//	              the application/x-hh-batch format of POST /update —
//	              or, under COUNTED, (key length, key, uvarint count)
//	              triples meaning each key count times
//
// Error handling is whole-or-nothing at frame granularity: a frame
// either parses completely and is ingested as one batch, or it is
// rejected and nothing of it reaches any summary. On TCP a rejected
// frame kills the connection (stream framing is unrecoverable once
// corrupt); on UDP a rejected datagram is silently dropped. The
// decoder is total — arbitrary bytes produce an error, never a panic
// (FuzzWireFrame pins this).
package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/registry"
)

// Frame geometry and protocol constants. See docs/WIRE.md.
const (
	// Magic opens every ingest frame.
	Magic = "HHWB"
	// AckMagic opens every acknowledgement the server writes back.
	AckMagic = "HHWA"
	// Version is the only frame version this implementation speaks.
	// Compatibility policy: the version byte bumps on any change to the
	// frame layout; a server rejects versions it does not implement
	// (killing the TCP connection or dropping the datagram), so a
	// mixed-version fleet fails loudly rather than misparsing. A
	// reserved flag bit (FlagCounted) is assigned without a bump: older
	// servers reject it just as loudly.
	Version = 1
	// HeaderLen is the fixed-size frame prefix before name and body.
	HeaderLen = 12
	// AckLen is the size of the acknowledgement message.
	AckLen = 8
	// FlagAck asks the server to acknowledge this frame after its batch
	// is ingested — the client's sync barrier. Valid on TCP only: a UDP
	// frame carrying it is malformed (datagrams promise no delivery, so
	// an ack would promise what the transport cannot).
	FlagAck = 1 << 0
	// FlagCounted marks a counted body (docs/WIRE.md, "Counted frames"): (uvarint key
	// length, key, uvarint count) triples, meaning the v1 body that
	// carries each key count times, in pair order. Clients fold a
	// frame's duplicate keys into it; a server that predates it treats
	// the bit as reserved, so servers upgrade before clients.
	FlagCounted = 1 << 1
	// MaxNameLen bounds the summary-name field, matching the registry's
	// name grammar (1-128 of [A-Za-z0-9._-]).
	MaxNameLen = 128
	// AckStatusOK is the only ack status v1 defines: the frame's batch
	// was ingested. Errors never produce an ack — the connection dies.
	AckStatusOK = 0
)

// Frame is one parsed ingest frame. Name and Body alias the buffer
// handed to the parser: they are valid only until the caller reuses it,
// the zero-copy contract the registry's borrowed-key summaries expect.
type Frame struct {
	Flags byte
	Name  []byte
	Body  []byte
}

// Ack reports whether the frame requests an acknowledgement.
func (f Frame) Ack() bool { return f.Flags&FlagAck != 0 }

// ParseHeader validates the fixed 12-byte frame prefix and returns the
// name and body lengths still to be read, plus the flags byte. maxBody
// bounds the body length (<= 0 means the registry default). h must be
// exactly HeaderLen bytes.
//
//hh:nopanic
func ParseHeader(h []byte, maxBody int) (nameLen, bodyLen int, flags byte, err error) {
	if len(h) != HeaderLen {
		return 0, 0, 0, fmt.Errorf("wire: header is %d bytes, want %d", len(h), HeaderLen)
	}
	if string(h[0:4]) != Magic {
		return 0, 0, 0, fmt.Errorf("wire: bad magic %q", h[0:4])
	}
	if h[4] != Version {
		return 0, 0, 0, fmt.Errorf("wire: unsupported version %d (this side speaks %d)", h[4], Version)
	}
	flags = h[5]
	if flags&^(FlagAck|FlagCounted) != 0 {
		return 0, 0, 0, fmt.Errorf("wire: reserved flag bits set: %#02x", flags)
	}
	nameLen = int(binary.LittleEndian.Uint16(h[6:8]))
	if nameLen < 1 || nameLen > MaxNameLen {
		return 0, 0, 0, fmt.Errorf("wire: name length %d outside [1, %d]", nameLen, MaxNameLen)
	}
	if maxBody <= 0 {
		maxBody = registry.DefaultMaxBodyBytes
	}
	b := binary.LittleEndian.Uint32(h[8:12])
	if uint64(b) > uint64(maxBody) {
		return 0, 0, 0, fmt.Errorf("wire: body length %d exceeds the %d-byte limit", b, maxBody)
	}
	bodyLen = int(b)
	return nameLen, bodyLen, flags, nil
}

// ParseFrame parses one self-contained frame — the shape of a UDP
// datagram, where buf is exactly one frame with no trailing bytes.
// The returned Frame aliases buf.
//
//hh:nopanic
func ParseFrame(buf []byte, maxBody int) (Frame, error) {
	if len(buf) < HeaderLen {
		return Frame{}, fmt.Errorf("wire: frame of %d bytes is shorter than the %d-byte header", len(buf), HeaderLen)
	}
	nameLen, bodyLen, flags, err := ParseHeader(buf[:HeaderLen], maxBody)
	if err != nil {
		return Frame{}, err
	}
	if len(buf) != HeaderLen+nameLen+bodyLen {
		return Frame{}, fmt.Errorf("wire: frame length %d does not match header (want %d)", len(buf), HeaderLen+nameLen+bodyLen)
	}
	return Frame{
		Flags: flags,
		Name:  buf[HeaderLen : HeaderLen+nameLen],
		Body:  buf[HeaderLen+nameLen:],
	}, nil
}

// AppendFrame appends one complete frame to dst: header, name, body.
// body must already be in the uvarint record format (see
// registry.AppendBinaryRecord), or the counted format
// (registry.AppendCountedRecord) with FlagCounted set. It panics if name or body exceed the
// frame's field limits — both are caller bugs, not wire conditions.
func AppendFrame(dst []byte, name string, flags byte, body []byte) []byte {
	if len(name) < 1 || len(name) > MaxNameLen {
		panic(fmt.Sprintf("wire: name length %d outside [1, %d]", len(name), MaxNameLen))
	}
	if uint64(len(body)) > uint64(^uint32(0)) {
		panic("wire: body exceeds the uint32 length field")
	}
	dst = append(dst, Magic...)
	dst = append(dst, Version, flags)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = append(dst, name...)
	return append(dst, body...)
}

// AppendAck appends one acknowledgement message to dst: AckMagic,
// version, status, and two reserved zero bytes.
func AppendAck(dst []byte, status byte) []byte {
	dst = append(dst, AckMagic...)
	return append(dst, Version, status, 0, 0)
}

// ParseAck validates an acknowledgement message and returns its status.
//
//hh:nopanic
func ParseAck(buf []byte) (status byte, err error) {
	if len(buf) != AckLen {
		return 0, fmt.Errorf("wire: ack is %d bytes, want %d", len(buf), AckLen)
	}
	if string(buf[0:4]) != AckMagic {
		return 0, fmt.Errorf("wire: bad ack magic %q", buf[0:4])
	}
	if buf[4] != Version {
		return 0, fmt.Errorf("wire: unsupported ack version %d", buf[4])
	}
	if buf[6] != 0 || buf[7] != 0 {
		return 0, fmt.Errorf("wire: reserved ack bytes set")
	}
	return buf[5], nil
}
