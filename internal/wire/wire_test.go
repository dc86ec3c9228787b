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

// counted builds a counted frame (FlagCounted) from (key, count) pairs.
func counted(name string, flags byte, pairs ...any) []byte {
	var body []byte
	for i := 0; i < len(pairs); i += 2 {
		body = registry.AppendCountedRecord(body, pairs[i].(string), pairs[i+1].(uint32))
	}
	return wire.AppendFrame(nil, name, flags|wire.FlagCounted, body)
}

// TestListenerCountedTCP: counted frames ingest as their expansion —
// duplicate keys in a body sum — interleaved with v1 frames on one
// connection, acks covering both, and the listener counts occurrences.
func TestListenerCountedTCP(t *testing.T) {
	l, addr, e := newTestListener(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var buf []byte
	buf = append(buf, counted("s", 0, "a", uint32(5), "b", uint32(2))...)
	buf = append(buf, frame("s", 0, "a", "c")...)
	buf = append(buf, counted("s", wire.FlagAck, "c", uint32(3), "a", uint32(1), "c", uint32(1))...)
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, wire.AckLen)
	if _, err := io.ReadFull(c, ack); err != nil {
		t.Fatal(err)
	}
	if n := e.Live().N(); n != 14 {
		t.Fatalf("N = %v, want 14", n)
	}
	for k, want := range map[string]float64{"a": 7, "b": 2, "c": 5} {
		if got := e.Live().Estimate(k); got != want {
			t.Errorf("Estimate(%s) = %v, want %v", k, got, want)
		}
	}
	if st := l.Stats(); st.Frames != 3 || st.Items != 14 {
		t.Fatalf("stats = %+v, want 3 frames, 14 items", st)
	}
}

// TestListenerCountedMalformed: a malformed counted body kills the TCP
// connection and drops the UDP datagram, moving nothing either way.
func TestListenerCountedMalformed(t *testing.T) {
	bad := map[string][]byte{
		"truncated key":   wire.AppendFrame(nil, "s", wire.FlagCounted, []byte{3, 'a'}),
		"truncated count": wire.AppendFrame(nil, "s", wire.FlagCounted, []byte{1, 'a'}),
		"count 0":         wire.AppendFrame(nil, "s", wire.FlagCounted, []byte{1, 'a', 0}),
		"count >= 2^32":   wire.AppendFrame(nil, "s", wire.FlagCounted, binary.AppendUvarint([]byte{1, 'a'}, 1<<32)),
		// 2^20 + 1 occurrences in 6 bytes: past the listener's 1 MiB cap.
		"sum over cap": counted("s", 0, "a", uint32(1<<20), "b", uint32(1)),
	}
	l, addr, e := newTestListener(t)
	for name, fr := range bad {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c.Write(fr)
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatalf("%s: connection survived", name)
		}
		c.Close()
		if n := e.Live().N(); n != 0 {
			t.Fatalf("%s: moved N to %v", name, n)
		}
	}
	if st := l.Stats(); st.Kills != uint64(len(bad)) || st.Items != 0 {
		t.Fatalf("stats = %+v, want %d kills", st, len(bad))
	}

	reg, err := registry.New(registry.Config{Summaries: map[string]hh.Spec{"s": {Capacity: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	ul := wire.NewListener(reg, 1<<20)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ul.ServeUDP(pc)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		ul.Shutdown(ctx)
	}()
	uc, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	for _, fr := range bad {
		uc.Write(fr)
	}
	uc.Write(counted("s", 0, "x", uint32(4), "y", uint32(1)))
	ue, _ := reg.Get("s")
	deadline := time.Now().Add(5 * time.Second)
	for ue.Live().N() < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n, x := ue.Live().N(), ue.Live().Estimate("x"); n != 5 || x != 4 {
		t.Fatalf("UDP: N = %v, x = %v; want 5, 4", n, x)
	}
	if st := ul.Stats(); st.Datagrams != 1 || st.Drops != uint64(len(bad)) || st.Items != 5 {
		t.Fatalf("UDP stats = %+v, want 1 datagram, %d drops, 5 items", st, len(bad))
	}
}
