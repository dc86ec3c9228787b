package wire_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	hh "repro"
	"repro/internal/registry"
	"repro/internal/wire"
)

// frame builds a valid v1 frame for tests.
func frame(name string, flags byte, keys ...string) []byte {
	var body []byte
	for _, k := range keys {
		body = registry.AppendBinaryRecord(body, k)
	}
	return wire.AppendFrame(nil, name, flags, body)
}

func TestFrameRoundTrip(t *testing.T) {
	buf := frame("queries", wire.FlagAck, "alpha", "beta", "", "alpha")
	f, err := wire.ParseFrame(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Name) != "queries" || !f.Ack() {
		t.Fatalf("parsed frame = %+v", f)
	}
	keys, err := registry.AppendBinaryKeys(nil, f.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "beta", "", "alpha"}
	if len(keys) != len(want) {
		t.Fatalf("keys = %q, want %q", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %q, want %q", keys, want)
		}
	}
}

func TestFrameErrors(t *testing.T) {
	good := frame("s", 0, "k")
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return f(b)
	}
	cases := map[string][]byte{
		"empty":          {},
		"short header":   good[:11],
		"bad magic":      mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":    mutate(func(b []byte) []byte { b[4] = 2; return b }),
		"reserved flags": mutate(func(b []byte) []byte { b[5] = 0x80; return b }),
		"zero name":      mutate(func(b []byte) []byte { binary.LittleEndian.PutUint16(b[6:8], 0); return b }),
		"long name":      mutate(func(b []byte) []byte { binary.LittleEndian.PutUint16(b[6:8], 129); return b }),
		"body too long":  mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:12], 1<<31); return b }),
		"truncated":      good[:len(good)-1],
		"trailing":       append(append([]byte(nil), good...), 0),
	}
	for name, buf := range cases {
		if _, err := wire.ParseFrame(buf, 0); err == nil {
			t.Errorf("%s: ParseFrame accepted %q", name, buf)
		}
	}
	if _, err := wire.ParseFrame(good, 0); err != nil {
		t.Fatalf("good frame rejected: %v", err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	ack := wire.AppendAck(nil, wire.AckStatusOK)
	if len(ack) != wire.AckLen {
		t.Fatalf("ack length %d, want %d", len(ack), wire.AckLen)
	}
	st, err := wire.ParseAck(ack)
	if err != nil || st != wire.AckStatusOK {
		t.Fatalf("ParseAck = %d, %v", st, err)
	}
	for _, bad := range [][]byte{{}, ack[:7], append([]byte("HHWX"), ack[4:]...)} {
		if _, err := wire.ParseAck(bad); err == nil {
			t.Errorf("ParseAck accepted %q", bad)
		}
	}
}

// newTestListener boots a registry with one summary and a TCP wire
// listener on loopback, returning the dial address and the entry.
func newTestListener(t *testing.T) (*wire.Listener, string, *registry.Entry) {
	t.Helper()
	reg, err := registry.New(registry.Config{
		Summaries: map[string]hh.Spec{"s": {Capacity: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	l := wire.NewListener(reg, 1<<20)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go l.ServeTCP(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		l.Shutdown(ctx)
	})
	e, _ := reg.Get("s")
	return l, ln.Addr().String(), e
}

func TestListenerTCPIngestAndAck(t *testing.T) {
	l, addr, e := newTestListener(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var buf []byte
	buf = append(buf, frame("s", 0, "a", "b", "a")...)
	buf = append(buf, frame("s", wire.FlagAck, "c")...)
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, wire.AckLen)
	if _, err := io.ReadFull(c, ack); err != nil {
		t.Fatal(err)
	}
	if st, err := wire.ParseAck(ack); err != nil || st != wire.AckStatusOK {
		t.Fatalf("ack = %d, %v", st, err)
	}
	// The ack is written after ingest, so both frames are visible now.
	if n := e.Live().N(); n != 4 {
		t.Fatalf("N = %v, want 4", n)
	}
	if got := e.Live().Estimate("a"); got != 2 {
		t.Fatalf("Estimate(a) = %v, want 2", got)
	}
	if st := l.Stats(); st.Frames != 2 || st.Items != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// An ack means "applied", not merely "queued": after FlagAck comes
// back, queries on the sharded summary must see the mass of every frame
// sent before it.
func TestListenerTCPAckMeansApplied(t *testing.T) {
	reg, err := registry.New(registry.Config{
		Summaries: map[string]hh.Spec{"p": {Capacity: 64, Shards: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	l := wire.NewListener(reg, 1<<20)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go l.ServeTCP(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		l.Shutdown(ctx)
	})
	e, _ := reg.Get("p")
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var buf []byte
	for i := 0; i < 9; i++ {
		buf = append(buf, frame("p", 0, "a", "b", "c", "a")...)
	}
	buf = append(buf, frame("p", wire.FlagAck, "a", "d")...)
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, wire.AckLen)
	if _, err := io.ReadFull(c, ack); err != nil {
		t.Fatal(err)
	}
	if st, err := wire.ParseAck(ack); err != nil || st != wire.AckStatusOK {
		t.Fatalf("ack = %d, %v", st, err)
	}
	if n := e.Live().N(); n != 38 {
		t.Fatalf("N after ack = %v, want 38", n)
	}
	if got := e.Live().Estimate("a"); got != 19 {
		t.Fatalf("Estimate(a) = %v, want 19", got)
	}
}

// A malformed frame must kill the connection without moving any
// summary's mass — the whole-or-nothing contract.
func TestListenerTCPMalformedKillsConn(t *testing.T) {
	l, addr, e := newTestListener(t)
	cases := [][]byte{
		[]byte("XXXXXXXXXXXXXXXX"), // bad magic
		frame("nosuch", 0, "k"),    // unknown summary
		append(frame("s", 0), bytes.Repeat([]byte{0xff}, wire.HeaderLen)...), // second frame's header corrupt
		wire.AppendFrame(nil, "s", 0, []byte{0xff}),                          // malformed batch body
	}
	for i, bad := range cases {
		before := e.Live().N()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c.Write(bad)
		// The server must close on us; a read unblocks with EOF/reset.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatalf("case %d: connection survived a malformed frame", i)
		}
		c.Close()
		if after := e.Live().N(); after != before {
			t.Fatalf("case %d: malformed frame moved mass %v -> %v", i, before, after)
		}
	}
	if st := l.Stats(); st.Kills != uint64(len(cases)) {
		t.Fatalf("kills = %d, want %d", l.Stats().Kills, len(cases))
	}
}

func TestListenerUDPIngestAndDrops(t *testing.T) {
	reg, err := registry.New(registry.Config{
		Summaries: map[string]hh.Spec{"s": {Capacity: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	l := wire.NewListener(reg, 1<<20)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go l.ServeUDP(pc)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		l.Shutdown(ctx)
	}()
	c, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e, _ := reg.Get("s")
	c.Write(frame("s", 0, "x", "y"))
	c.Write([]byte("garbage"))             // malformed: dropped
	c.Write(frame("nosuch", 0, "k"))       // unknown name: dropped
	c.Write(frame("s", wire.FlagAck, "z")) // ack flag invalid on UDP: dropped
	c.Write(frame("s", 0, "x"))
	deadline := time.Now().Add(5 * time.Second)
	for e.Live().N() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := e.Live().N(); n != 3 {
		t.Fatalf("N = %v, want 3", n)
	}
	st := l.Stats()
	if st.Datagrams != 2 || st.Drops != 3 {
		t.Fatalf("stats = %+v, want 2 datagrams, 3 drops", st)
	}
}

func TestShutdownDrains(t *testing.T) {
	l, addr, e := newTestListener(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(frame("s", wire.FlagAck, "k")); err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, wire.AckLen)
	if _, err := io.ReadFull(c, ack); err != nil {
		t.Fatal(err)
	}
	// A graceful drain completes once clients hang up; with the
	// connection still open Shutdown would wait for the deadline and
	// force-close (frames are atomic either way).
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := l.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if n := e.Live().N(); n != 1 {
		t.Fatalf("N = %v, want 1", n)
	}
	// The drained listener refuses new serving loops.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ServeTCP(ln); err == nil {
		t.Fatal("ServeTCP after Shutdown did not error")
	}
}

// FuzzWireFrame pins the decoder's totality: arbitrary bytes must
// produce an error or a well-formed Frame, never a panic — the
// machine-checked //hh:nopanic contract of docs/WIRE.md's "error
// behavior" section. Valid frames must round-trip byte-exactly.
func FuzzWireFrame(f *testing.F) {
	f.Add(frame("queries", 0, "alpha", "beta"))
	f.Add(frame("s", wire.FlagAck))
	f.Add(frame("a.very-long_name.0", 0, "", "k"))
	f.Add([]byte(wire.Magic))
	f.Add([]byte("HHWB\x01\x00\x01\x00\x00\x00\x00\x00s"))
	f.Add([]byte("HHWA\x01\x00\x00\x00"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := wire.ParseFrame(data, 1<<20)
		if err != nil {
			return
		}
		if len(fr.Name) < 1 || len(fr.Name) > wire.MaxNameLen {
			t.Fatalf("accepted frame with name length %d", len(fr.Name))
		}
		// Re-encoding an accepted frame reproduces the input exactly —
		// parser and encoder agree on every byte.
		out := wire.AppendFrame(nil, string(fr.Name), fr.Flags, fr.Body)
		if !bytes.Equal(out, data) {
			t.Fatalf("round-trip mismatch:\n in  %q\n out %q", data, out)
		}
		// The batch body parses or errors, never panics (the listener
		// would kill/drop on error without ingesting).
		if keys, err := registry.AppendBinaryKeys(nil, fr.Body); err == nil {
			_ = keys
		}
	})
}
