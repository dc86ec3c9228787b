package wire

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/registry"
)

// Listener serves the hhwire ingest protocol over a registry: TCP
// connections via ServeTCP, UDP datagrams via ServeUDP, both feeding
// Entry.IngestBatch. One Listener can serve both transports at once;
// Shutdown drains them together.
//
// Concurrency model: one goroutine per TCP connection owns that
// connection's read buffer, frame scratch, and key slice — frames are
// parsed zero-copy into connection-local memory and handed to the
// summary's borrowed-key batch path, so steady-state ingest performs
// no per-frame allocations and shares nothing across connections
// until the summary's own synchronization takes over.
type Listener struct {
	reg     *registry.Registry
	maxBody int

	mu     sync.Mutex
	closed bool
	lns    []net.Listener
	pcs    []net.PacketConn
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	frames atomic.Uint64 // TCP frames ingested
	items  atomic.Uint64 // key occurrences ingested across both transports
	kills  atomic.Uint64 // TCP connections killed on protocol errors
	drops  atomic.Uint64 // UDP datagrams dropped (malformed or unknown name)
	grams  atomic.Uint64 // UDP datagrams ingested
}

// Stats is a point-in-time snapshot of a Listener's counters.
type Stats struct {
	Frames    uint64 // TCP frames ingested
	Items     uint64 // key occurrences ingested across both transports (a counted pair counts its count)
	Kills     uint64 // TCP connections killed on protocol errors
	Datagrams uint64 // UDP datagrams ingested
	Drops     uint64 // UDP datagrams dropped
}

// NewListener builds a Listener over reg. maxBody bounds a single
// frame's body; <= 0 means registry.DefaultMaxBodyBytes.
func NewListener(reg *registry.Registry, maxBody int64) *Listener {
	if maxBody <= 0 {
		maxBody = registry.DefaultMaxBodyBytes
	}
	return &Listener{reg: reg, maxBody: int(maxBody), conns: make(map[net.Conn]struct{})}
}

// Stats returns a snapshot of the listener's counters.
func (l *Listener) Stats() Stats {
	return Stats{
		Frames:    l.frames.Load(),
		Items:     l.items.Load(),
		Kills:     l.kills.Load(),
		Datagrams: l.grams.Load(),
		Drops:     l.drops.Load(),
	}
}

// ServeTCP accepts connections from ln and serves frames from each
// until it closes or Shutdown runs. It blocks; the caller owns the
// goroutine. After Shutdown it returns nil.
func (l *Listener) ServeTCP(ln net.Listener) error {
	if !l.track(ln, nil) {
		ln.Close()
		return errors.New("wire: listener is shut down")
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			if l.isClosed() {
				return nil
			}
			return err
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			c.Close()
			return nil
		}
		l.conns[c] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go l.serveConn(c)
	}
}

// ServeUDP reads datagrams from pc — each one self-contained frame —
// until it closes or Shutdown runs. Malformed or unroutable datagrams
// are dropped and counted, never answered: UDP mode is the lossy
// telemetry path, and a reply could amplify a spoofed source. It
// blocks; the caller owns the goroutine. After Shutdown it returns nil.
func (l *Listener) ServeUDP(pc net.PacketConn) error {
	if !l.track(nil, pc) {
		pc.Close()
		return errors.New("wire: listener is shut down")
	}
	// track counted this loop in wg (under the same lock Shutdown takes
	// to set closed), so Shutdown always waits for a mid-ingest
	// datagram to finish.
	defer l.wg.Done()
	// 64 KiB covers the largest UDP payload; a frame bigger than the
	// datagram that carried it cannot exist.
	buf := make([]byte, 64<<10)
	var keys []string
	var cb registry.CountedBatch
	for {
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			if l.isClosed() {
				return nil
			}
			return err
		}
		f, err := ParseFrame(buf[:n], l.maxBody)
		if err != nil || f.Ack() {
			l.drops.Add(1)
			continue
		}
		e, ok := l.reg.Get(bstr(f.Name))
		if !ok {
			l.drops.Add(1)
			continue
		}
		var items uint64
		keys, items, err = l.ingest(e, f.Flags, f.Body, keys, &cb)
		if err != nil {
			// A malformed body, or a failed WAL append: the datagram was
			// not applied. UDP is the lossy plane — count the drop and
			// keep serving.
			l.drops.Add(1)
			continue
		}
		l.grams.Add(1)
		l.items.Add(items)
	}
}

// ingest parses one frame body — whole, before any of it is applied —
// and ingests it into e: a v1 body as one borrowed-key batch, a counted
// body through the counted path. It returns the key scratch for reuse
// and the occurrences ingested. The keys alias body, which the caller
// leaves untouched until ingest returns; registry summaries clone any
// key they retain (borrowed-key ingest).
func (l *Listener) ingest(e *registry.Entry, flags byte, body []byte, keys []string, cb *registry.CountedBatch) ([]string, uint64, error) {
	if flags&FlagCounted != 0 {
		if err := cb.Parse(body, int64(l.maxBody)); err != nil {
			return keys, 0, err
		}
		err := e.IngestCounted(cb)
		clear(cb.Keys) // drop the frame's key views before the buffer is reused
		return keys, cb.Items, err
	}
	keys, err := registry.AppendBinaryKeysBorrowed(keys[:0], body)
	if err != nil {
		return keys, 0, err
	}
	return keys, uint64(len(keys)), e.IngestBatch(keys)
}

// serveConn runs one TCP connection's frame loop. Any protocol error —
// bad magic or version, reserved flags, oversized fields, an unknown
// summary name, a malformed batch body — kills the connection: once a
// length-prefixed stream is corrupt there is no resynchronization
// point, and killing loudly beats ingesting garbage. A batch is parsed
// completely before any of it is ingested, so a killed connection
// never leaves a summary partially updated from the bad frame.
func (l *Listener) serveConn(c net.Conn) {
	defer func() {
		c.Close()
		l.mu.Lock()
		delete(l.conns, c)
		l.mu.Unlock()
		l.wg.Done()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	var hdr [HeaderLen]byte
	var frame []byte // name+body scratch, reused across frames
	var keys []string
	var cb registry.CountedBatch
	var ack []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// EOF between frames is the clean client close; anything
			// else (mid-header cut, read error) is just a dead peer.
			return
		}
		nameLen, bodyLen, flags, err := ParseHeader(hdr[:], l.maxBody)
		if err != nil {
			l.kills.Add(1)
			return
		}
		need := nameLen + bodyLen
		if cap(frame) < need {
			frame = make([]byte, need)
		}
		frame = frame[:need]
		if _, err := io.ReadFull(br, frame); err != nil {
			l.kills.Add(1)
			return
		}
		e, ok := l.reg.Get(bstr(frame[:nameLen]))
		if !ok {
			l.kills.Add(1)
			return
		}
		// Zero-copy parse: keys alias frame, which stays untouched
		// until the ingest returns.
		var items uint64
		keys, items, err = l.ingest(e, flags, frame[nameLen:], keys, &cb)
		if err != nil {
			// A malformed body, or a failed WAL append: nothing was
			// applied, and acking later frames while this one silently
			// vanished would break the protocol's in-order promise —
			// kill the connection so the client knows exactly which
			// suffix to retry.
			l.kills.Add(1)
			return
		}
		l.frames.Add(1)
		l.items.Add(items)
		if flags&FlagAck != 0 {
			// IngestBatch applies the batch before it returns, so the
			// ack means "applied", not merely "queued".
			ack = AppendAck(ack[:0], AckStatusOK)
			if _, err := c.Write(ack); err != nil {
				return
			}
		}
	}
}

// Shutdown stops accepting, closes the UDP sockets, and waits for the
// in-flight TCP connections to finish their current frames and close.
// When ctx expires first, the remaining connections are force-closed
// (their in-flight frame is either fully ingested or not at all — the
// whole-or-nothing parse holds under force-close too) and ctx's error
// is returned.
func (l *Listener) Shutdown(ctx context.Context) error {
	l.mu.Lock()
	l.closed = true
	lns, pcs := l.lns, l.pcs
	l.lns, l.pcs = nil, nil
	l.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, pc := range pcs {
		pc.Close()
	}
	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		l.mu.Lock()
		for c := range l.conns {
			c.Close()
		}
		l.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// track registers a listener or packet conn for Shutdown, refusing
// after shutdown has begun.
func (l *Listener) track(ln net.Listener, pc net.PacketConn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	if ln != nil {
		l.lns = append(l.lns, ln)
	}
	if pc != nil {
		l.pcs = append(l.pcs, pc)
		l.wg.Add(1) // the ServeUDP loop; released by its deferred Done
	}
	return true
}

func (l *Listener) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// bstr views b as a string without copying — valid only for the
// duration of a lookup that does not retain it.
//
//hh:nopanic
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}
