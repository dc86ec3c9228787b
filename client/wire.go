package client

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io"
	"math/bits"
	"net"
	"sync"
	"time"
	"unsafe"

	"repro/internal/coalesce"
	"repro/internal/registry"
	"repro/internal/wire"
)

// WireConn is the hhwire ingest client: one persistent connection to
// an hhserverd wire listener, addressing one named summary, pushing
// length-prefixed binary frames (docs/WIRE.md) instead of HTTP
// requests. It is the path for agents that push at wire speed — no
// per-batch headers, no response parsing, a single reused frame
// buffer.
//
// Reliability model: TCP frames are not individually acknowledged, so
// a connection that dies mid-stream may lose frames already handed to
// the kernel; Flush sends an acknowledged frame and waits for it,
// giving the caller a sync barrier ("everything pushed before this
// Flush is ingested"). Writes that fail redial once and retry the
// current frame, so a server restart costs at most the unacknowledged
// window, never an error surfaced for a transient blip. UDP mode
// (DialWireUDP) drops all of this: frames are fire-and-forget
// datagrams, Flush only drains the pending batch, and loss is the
// accepted price.
//
// Folding: every frame is a candidate for a counted body (docs/WIRE.md,
// "Counted frames"). When a frame repeats keys, WireConn sends each
// distinct key once with its count, so the server parses, logs and
// applies per distinct key instead of per occurrence. A frame with no
// repeats goes out as a plain v1 body and backs folding off for the
// next 1, 2, 4 … 64 frames, so all-distinct traffic pays for one fold
// attempt in 64 frames. Folding needs a server that speaks counted
// frames: upgrade servers before clients. A folded frame reaches the
// server in grouped order — each key's later occurrences moved up to
// its first one — which decayed summaries and unsharded count windows
// can tell apart from the pushed order (docs/WIRE.md, "Client
// folding").
//
// A WireConn is safe for concurrent use; pushes serialize on an
// internal lock (use one WireConn per goroutine for parallel ingest —
// they are cheap).
type WireConn struct {
	addr string
	name string
	udp  bool

	// flushAt bounds how many pending body bytes Push accumulates
	// before auto-sending.
	flushAt int

	mu      sync.Mutex
	conn    net.Conn
	frame   []byte // frame build scratch, reused
	pending []byte // body bytes accumulated by Push
	npend   int    // keys in pending
	ackBuf  [wire.AckLen]byte

	// Folding state: the grouping table (shared with the server's
	// sharded tier) and its key hash seed, the pending keys' views, the
	// distinct keys and their counts, the counted-body scratch, and the
	// back-off.
	tab     coalesce.Table
	seed    maphash.Seed
	views   []string
	groups  []string
	counts  []uint32
	counted []byte
	skip    int // frames left to send without a fold attempt
	backoff int // the next skip, after a frame that did not fold
}

// maxFoldBackoff caps the frames a WireConn sends unfolded after a
// frame without repeats.
const maxFoldBackoff = 64

// WireOption customizes a WireConn.
type WireOption func(*WireConn)

// WithFlushBytes sets the pending-body threshold at which Push
// auto-sends a frame. The default is 32 KiB over TCP and 1400 bytes —
// a conservative single-MTU payload — over UDP; UDP callers on
// loopback or jumbo-frame networks can raise it toward the 64 KiB
// datagram ceiling.
func WithFlushBytes(n int) WireOption {
	return func(w *WireConn) {
		if n > 0 {
			w.flushAt = n
		}
	}
}

// DialWire connects to an hhserverd wire listener at addr
// (host:port) and addresses the summary named name over TCP.
func DialWire(addr, name string, opts ...WireOption) (*WireConn, error) {
	return dialWire(addr, name, false, opts)
}

// DialWireUDP is DialWire over UDP: every frame becomes one
// fire-and-forget datagram. Use it for telemetry where losing a batch
// is cheaper than backpressure; counts become lower bounds under loss.
func DialWireUDP(addr, name string, opts ...WireOption) (*WireConn, error) {
	return dialWire(addr, name, true, opts)
}

func dialWire(addr, name string, udp bool, opts []WireOption) (*WireConn, error) {
	if len(name) < 1 || len(name) > wire.MaxNameLen {
		return nil, fmt.Errorf("client: summary name length %d outside [1, %d]", len(name), wire.MaxNameLen)
	}
	w := &WireConn{addr: addr, name: name, udp: udp, flushAt: 32 << 10, seed: maphash.MakeSeed(), backoff: 1}
	if udp {
		w.flushAt = 1400
	}
	for _, o := range opts {
		o(w)
	}
	if err := w.redial(); err != nil {
		return nil, err
	}
	return w, nil
}

// redial (re)establishes the connection. Caller holds w.mu or is the
// constructor.
func (w *WireConn) redial() error {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
	network := "tcp"
	if w.udp {
		network = "udp"
	}
	c, err := net.DialTimeout(network, w.addr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("client: dial %s %s: %w", network, w.addr, err)
	}
	w.conn = c
	return nil
}

// Push appends one key to the pending batch, sending a frame when the
// batch reaches the flush threshold. Keys are copied immediately — the
// caller may reuse the backing memory as soon as Push returns.
func (w *WireConn) Push(key string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pending = registry.AppendBinaryRecord(w.pending, key)
	w.npend++
	if len(w.pending) >= w.flushAt {
		return w.sendPendingLocked(0)
	}
	return nil
}

// PushBatch sends keys as one frame immediately (flushing any pending
// Push keys first, preserving order). Over UDP the frame must fit one
// datagram; prefer batches of at most a few hundred short keys.
func (w *WireConn) PushBatch(keys []string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.pending) > 0 {
		if err := w.sendPendingLocked(0); err != nil {
			return err
		}
	}
	if len(keys) == 0 {
		return nil
	}
	// Fold straight from the caller's keys: a counted frame never needs
	// the v1 body built.
	if w.foldable(len(keys)) {
		v1 := 0
		for _, k := range keys {
			v1 += uvarintLen(len(k)) + len(k)
		}
		if counted, ok := w.fold(keys, v1); ok {
			return w.sendLocked(wire.FlagCounted, counted)
		}
	}
	for _, k := range keys {
		w.pending = registry.AppendBinaryRecord(w.pending, k)
	}
	return w.sendLocked(0, w.pending)
}

// Flush sends any pending keys and, over TCP, performs an acknowledged
// round-trip: when Flush returns nil, every key pushed before it has
// been ingested by the server. Over UDP it only drains the pending
// batch (datagrams cannot be acknowledged).
func (w *WireConn) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.udp {
		if len(w.pending) == 0 {
			return nil
		}
		return w.sendPendingLocked(0)
	}
	// The barrier frame carries the ack flag; an empty body is a valid
	// frame, so Flush works even with nothing pending.
	if err := w.sendPendingLocked(wire.FlagAck); err != nil {
		return err
	}
	if _, err := io.ReadFull(w.conn, w.ackBuf[:]); err != nil {
		return fmt.Errorf("client: reading ack: %w", err)
	}
	status, err := wire.ParseAck(w.ackBuf[:])
	if err != nil {
		return err
	}
	if status != wire.AckStatusOK {
		return fmt.Errorf("client: server ack status %d", status)
	}
	return nil
}

// Close flushes pending keys (without an ack round-trip) and closes
// the connection.
func (w *WireConn) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	if len(w.pending) > 0 {
		err = w.sendPendingLocked(0)
	}
	if w.conn != nil {
		if cerr := w.conn.Close(); err == nil {
			err = cerr
		}
		w.conn = nil
	}
	return err
}

// sendPendingLocked folds and sends the pending body (see fold).
func (w *WireConn) sendPendingLocked(flags byte) error {
	if w.foldable(w.npend) {
		if counted, ok := w.fold(w.pendingKeys(), len(w.pending)); ok {
			return w.sendLocked(flags|wire.FlagCounted, counted)
		}
	}
	return w.sendLocked(flags, w.pending)
}

// sendLocked frames and writes body, then resets the pending batch. A
// write error redials once and retries the same frame — the
// automatic-reconnect contract: a restarted server costs at most the
// frames the kernel never delivered, and the caller sees an error only
// when the redial itself fails.
func (w *WireConn) sendLocked(flags byte, body []byte) error {
	w.frame = wire.AppendFrame(w.frame[:0], w.name, flags, body)
	w.pending, w.npend = w.pending[:0], 0
	if w.conn == nil {
		if err := w.redial(); err != nil {
			return err
		}
	}
	if _, err := w.conn.Write(w.frame); err != nil {
		if rerr := w.redial(); rerr != nil {
			return rerr
		}
		if _, err := w.conn.Write(w.frame); err != nil {
			return fmt.Errorf("client: write after reconnect: %w", err)
		}
	}
	return nil
}

// foldable reports whether a frame of n keys gets a fold attempt; a
// frame the back-off skips counts down the back-off.
func (w *WireConn) foldable(n int) bool {
	if n < 2 {
		return false
	}
	if w.skip > 0 {
		w.skip--
		return false
	}
	return true
}

// pendingKeys returns views of the pending body's keys, valid until the
// pending batch is reset. pending holds only records this WireConn
// encoded, so the lengths are well-formed.
func (w *WireConn) pendingKeys() []string {
	keys := w.views[:0]
	for off := 0; off < len(w.pending); {
		n, used := binary.Uvarint(w.pending[off:])
		off += used
		keys = append(keys, unsafe.String(unsafe.SliceData(w.pending[off:]), int(n)))
		off += int(n)
	}
	w.views = keys
	return keys
}

// fold groups a frame's keys — distinct keys in first-occurrence order,
// each with its count — and returns their counted body when the frame
// repeats a key and the counted body is shorter than v1, the size of
// the frame's v1 body. Otherwise it reports false, and the back-off
// starts or doubles.
func (w *WireConn) fold(keys []string, v1 int) ([]byte, bool) {
	w.tab.Reset(len(keys), true)
	groups, counts := w.groups[:0], w.counts[:0]
	for _, k := range keys {
		if g, ok := coalesce.Find(&w.tab, maphash.String(w.seed, k), k, groups); ok {
			counts[g]++
			continue
		}
		groups = append(groups, k)
		counts = append(counts, 1)
	}
	var counted []byte
	if len(groups) < len(keys) {
		counted = w.counted[:0]
		for i, k := range groups {
			counted = registry.AppendCountedRecord(counted, k, counts[i])
		}
		w.counted = counted
	}
	// Drop the key views (caller memory, or pending) before keeping the
	// scratch.
	clear(groups)
	clear(w.views)
	w.groups, w.counts = groups[:0], counts[:0]
	if counted != nil && len(counted) < v1 {
		w.backoff = 1
		return counted, true
	}
	w.skip = w.backoff
	w.backoff = min(2*w.backoff, maxFoldBackoff)
	return nil, false
}

// uvarintLen is the encoded length of n as a uvarint.
func uvarintLen(n int) int { return (bits.Len(uint(n)|1) + 6) / 7 }
