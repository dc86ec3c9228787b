package client_test

import (
	"bufio"
	"context"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"slices"
	"strconv"
	"testing"

	hh "repro"
	"repro/client"
	"repro/internal/registry"
	"repro/internal/wire"
)

// sent is one frame as the server received it: flags plus the body
// expanded back to its key occurrences, in pair order.
type sent struct {
	counted bool
	keys    []string
}

// captureTCP accepts one connection and forwards every frame it reads,
// acknowledging FlagAck frames like a real listener.
func captureTCP(t *testing.T) (string, <-chan sent) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	out := make(chan sent, 1024)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		for {
			var hdr [wire.HeaderLen]byte
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return
			}
			nameLen, bodyLen, flags, err := wire.ParseHeader(hdr[:], 0)
			if err != nil {
				t.Errorf("client sent a bad header: %v", err)
				return
			}
			buf := make([]byte, nameLen+bodyLen)
			if _, err := io.ReadFull(br, buf); err != nil {
				return
			}
			out <- decodeBody(t, flags, buf[nameLen:])
			if flags&wire.FlagAck != 0 {
				c.Write(wire.AppendAck(nil, wire.AckStatusOK))
			}
		}
	}()
	return ln.Addr().String(), out
}

func decodeBody(t *testing.T, flags byte, body []byte) sent {
	t.Helper()
	if flags&wire.FlagCounted == 0 {
		keys, err := registry.AppendBinaryKeys(nil, body)
		if err != nil {
			t.Errorf("v1 body: %v", err)
		}
		return sent{keys: keys}
	}
	var b registry.CountedBatch
	if err := b.Parse(body, 0); err != nil {
		t.Errorf("counted body: %v", err)
	}
	s := sent{counted: true}
	for i, k := range b.Keys {
		if slices.Contains(b.Keys[:i], k) {
			t.Errorf("counted body repeats key %q", k)
		}
		for range b.Counts[i] {
			s.keys = append(s.keys, string([]byte(k)))
		}
	}
	return s
}

// grouped is keys in first-occurrence-grouped order — what a folded
// frame expands to.
func grouped(keys []string) []string {
	var order []string
	n := map[string]int{}
	for _, k := range keys {
		if n[k] == 0 {
			order = append(order, k)
		}
		n[k]++
	}
	var out []string
	for _, k := range order {
		for range n[k] {
			out = append(out, k)
		}
	}
	return out
}

func distinctKeys(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = prefix + strconv.Itoa(i)
	}
	return keys
}

// TestWireConnFolds: a frame that repeats keys goes out counted — each
// distinct key once, first-occurrence order, with its count — through
// PushBatch and through Push's auto-framing alike; a frame whose
// counted body would not be shorter goes out as v1.
func TestWireConnFolds(t *testing.T) {
	addr, frames := captureTCP(t)
	w, err := client.DialWire(addr, "s", client.WithFlushBytes(24))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	batch := []string{"alpha", "b", "alpha", "alpha", "", "b", ""}
	if err := w.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if f := <-frames; !f.counted || !slices.Equal(f.keys, grouped(batch)) {
		t.Fatalf("PushBatch frame = %+v, want counted %v", f, grouped(batch))
	}
	// Push: 24-byte frames of 4-byte records, six repeats of one key.
	for range 6 {
		if err := w.Push("key"); err != nil {
			t.Fatal(err)
		}
	}
	if f := <-frames; !f.counted || len(f.keys) != 6 {
		t.Fatalf("Push frame = %+v, want 6 counted occurrences", f)
	}
	// One repeat among single-byte keys: 3 bytes per pair would outgrow
	// the 2-byte v1 records, so the frame stays v1.
	if err := w.PushBatch([]string{"a", "b", "c", "a"}); err != nil {
		t.Fatal(err)
	}
	if f := <-frames; f.counted || !slices.Equal(f.keys, []string{"a", "b", "c", "a"}) {
		t.Fatalf("frame = %+v, want v1", f)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestWireConnFoldBackoff: after a frame that does not fold, the client
// sends the next 1, 2, 4 … 64 frames without trying; a frame that folds
// resets the back-off.
func TestWireConnFoldBackoff(t *testing.T) {
	addr, frames := captureTCP(t)
	w, err := client.DialWire(addr, "s")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	dup := []string{"x", "x", "x", "y"}
	push := func(keys []string) bool {
		t.Helper()
		if err := w.PushBatch(keys); err != nil {
			t.Fatal(err)
		}
		return (<-frames).counted
	}
	if !push(dup) {
		t.Fatal("first duplicate frame not folded")
	}
	if push(distinctKeys("d", 8)) {
		t.Fatal("all-distinct frame folded")
	}
	if push(dup) {
		t.Fatal("frame after an all-distinct one folded: no back-off")
	}
	if !push(dup) || !push(dup) {
		t.Fatal("back-off of 1 frame outlasted its frame")
	}
	// A long all-distinct run: fold attempts back off to every 65th
	// frame, so 64 is the most duplicate frames that can go out unfolded
	// before folding resumes.
	for i := range 300 {
		push(distinctKeys("r"+strconv.Itoa(i)+"-", 8))
	}
	unfolded := 0
	for !push(dup) {
		unfolded++
		if unfolded > 64 {
			t.Fatal("more than 64 duplicate frames unfolded: back-off not capped")
		}
	}
	if !push(dup) {
		t.Fatal("back-off not reset by a folded frame")
	}
}

// TestWireConnFoldsUDP: datagrams fold too.
func TestWireConnFoldsUDP(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	w, err := client.DialWireUDP(pc.LocalAddr().String(), "s")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	batch := []string{"k", "k", "k", "k", "j"}
	if err := w.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	n, _, err := pc.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	f, err := wire.ParseFrame(buf[:n], 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeBody(t, f.Flags, f.Body); !got.counted || !slices.Equal(got.keys, grouped(batch)) {
		t.Fatalf("datagram = %+v, want counted %v", got, grouped(batch))
	}
}

// TestWireConnFoldOrder: a folded frame is the pushed frame in grouped
// order (docs/WIRE.md, "Client folding"). On the compositions whose
// state depends on arrival order — a decayed summary and an unsharded
// count window — it leaves exactly the state of the grouped v1 frame;
// against the frame as pushed, N is unchanged and each key's decayed
// count moves by at most a factor e^(±λ(F−1)), and on this short
// horizon it does move.
func TestWireConnFoldOrder(t *testing.T) {
	const lambda = 0.01
	sides := []string{"folded", "grouped", "pushed"}
	specs := map[string]hh.Spec{}
	for _, side := range sides {
		specs["decay-"+side] = hh.Spec{Capacity: 64, Decay: lambda}
		specs["window-"+side] = hh.Spec{Capacity: 64, Window: 100}
	}
	reg, err := registry.New(registry.Config{Summaries: specs})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := wire.NewListener(reg, registry.DefaultMaxBodyBytes)
	go l.ServeTCP(ln)
	t.Cleanup(func() { l.Shutdown(context.Background()) })
	addr := ln.Addr().String()

	// 300 occurrences of 30 keys, shuffled: every key repeats across
	// the whole frame, so grouping moves occurrences far.
	frame := make([]string, 300)
	for i := range frame {
		frame[i] = "k" + strconv.Itoa(i%30)
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(frame), func(i, j int) { frame[i], frame[j] = frame[j], frame[i] })

	for _, kind := range []string{"decay", "window"} {
		w, err := client.DialWire(addr, kind+"-folded")
		if err != nil {
			t.Fatal(err)
		}
		if err := w.PushBatch(frame); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		w.Close()
		pushV1(t, addr, kind+"-grouped", grouped(frame))
		pushV1(t, addr, kind+"-pushed", frame)
	}

	state := func(name string) (float64, map[string]hh.WeightedEntry[string]) {
		t.Helper()
		e, ok := reg.Get(name)
		if !ok {
			t.Fatalf("no summary %q", name)
		}
		s := e.Live()
		m := map[string]hh.WeightedEntry[string]{}
		for en := range s.All() {
			m[en.Item] = en
		}
		return s.N(), m
	}
	for _, kind := range []string{"decay", "window"} {
		nf, folded := state(kind + "-folded")
		ng, groupedSt := state(kind + "-grouped")
		np, _ := state(kind + "-pushed")
		if nf != ng || len(folded) != len(groupedSt) {
			t.Fatalf("%s: folded N %v over %d keys, grouped v1 N %v over %d", kind, nf, len(folded), ng, len(groupedSt))
		}
		for k, e := range groupedSt {
			if folded[k] != e {
				t.Errorf("%s: key %q folded %+v, grouped v1 %+v", kind, k, folded[k], e)
			}
		}
		if math.Abs(nf-np) > 1e-9*np {
			t.Errorf("%s: folded N %v, pushed v1 N %v", kind, nf, np)
		}
	}
	// Capacity 64 holds all 30 keys, so the decayed estimates are the
	// exact decayed counts of each order.
	_, folded := state("decay-folded")
	_, pushed := state("decay-pushed")
	limit := math.Exp(lambda * float64(len(frame)-1))
	moved := 0
	for k, p := range pushed {
		r := folded[k].Count / p.Count
		if r < 1/limit || r > limit {
			t.Errorf("decay: key %q folded %v, pushed %v: ratio %v outside e^(±λ(F−1)) = %v", k, folded[k].Count, p.Count, r, limit)
		}
		if math.Abs(r-1) > 0.01 {
			moved++
		}
	}
	if moved == 0 {
		t.Error("decay: no key's decayed count moved: the frame was not folded")
	}
}

// pushV1 sends keys to name as one raw v1 frame and waits for its ack.
func pushV1(t *testing.T, addr, name string, keys []string) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var body []byte
	for _, k := range keys {
		body = registry.AppendBinaryRecord(body, k)
	}
	if _, err := c.Write(wire.AppendFrame(nil, name, wire.FlagAck, body)); err != nil {
		t.Fatal(err)
	}
	var ack [wire.AckLen]byte
	if _, err := io.ReadFull(c, ack[:]); err != nil {
		t.Fatal(err)
	}
}
