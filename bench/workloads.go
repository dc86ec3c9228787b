package main

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"unsafe"

	hh "repro"
	"repro/internal/rng"
	"repro/internal/stream"
)

// Input sizes and rates. They are frozen together with BENCHMARK.json:
// changing one changes what every recorded number means, so a change
// here is a benchmark change, never part of a change that claims a gain.
const (
	// summaryName is the one summary every workload serves.
	summaryName = "bench"
	// batchKeys is the keys per hhwire frame and per /update body, the
	// batch size of cmd/hhbench's serving rows and of stream.Burst's
	// duplication blocks.
	batchKeys = 4096
	// framesPerFlush frames go out between acked Flush barriers, so one
	// ack round trip is amortized over 64Ki items.
	framesPerFlush = 16
	// traceItems is the seeded trace a run cycles over; a 20 s wire run
	// makes 20-80 passes. It is a multiple of batchKeys, so no frame
	// wraps the trace.
	traceItems = 4 << 20
	// zipfUniverse and zipfAlpha shape wire-zipf: the query-log skew
	// the paper's residual bounds are about, over decimal keys.
	zipfUniverse = 100_000
	zipfAlpha    = 1.1
	// burstAlpha and burstDup shape wire-burst-durable exactly like
	// cmd/hhbench's coalesce/burst rows: each 4096-key frame carries
	// ~410 distinct keys, so coalescing has 10 arrivals per probe.
	burstAlpha = 1.3
	burstDup   = 0.9
	// preseedItems is the WAL the durable data dir starts with and no
	// snapshot covers, so every boot replays it: the recovery cost that
	// setup_s prices on wire-burst-durable.
	preseedItems = 16 << 20
	// httpUniverse is the key universe of http-query-mix: large enough
	// that the live summary churns and every view rebuild sees changes.
	httpUniverse = 1 << 20
	// agentItems and agentCapacity size the remote agent whose encoded
	// summary http-query-mix merges.
	agentItems    = 1 << 20
	agentCapacity = 1024
	// distinctCycle is wire-distinct-m64k's key cycle: 64 times the
	// capacity, so every key is evicted before it recurs.
	distinctCycle = 4 << 20
)

// workload is one traffic mix. why is the one-line reason recorded in
// BENCHMARK.json; the comment on each entry of workloads says more.
type workload struct {
	name string
	why  string
	// http drives the open-loop HTTP mix; otherwise one hhwire
	// connection runs a closed loop.
	http bool
	// spec is the summary's config stanza.
	spec hh.Spec
	// durable arms the durability stanza and the preseeded WAL.
	durable bool
	// universe bounds the key ids; hexKeys renders them as salted
	// 64-bit hashes instead of decimals.
	universe int
	hexKeys  bool
	// boots is how many times setup runs; setup_s is their median.
	boots int
	// trace generates n key ids from the seed.
	trace func(seed uint64, n int) []uint64
}

var workloads = []workload{
	// The default serving path. Wire framing, parsing and the kernel
	// apply do the work; WAL, union view and coalescing do nothing.
	{
		name:     "wire-zipf",
		why:      "default hhwire path: zipf-1.1 keys, m=1024 unsharded, no WAL; framing, parse and the kernel apply do the work",
		spec:     hh.Spec{Algorithm: "spacesaving", Capacity: 1024},
		universe: zipfUniverse,
		boots:    9,
		trace: func(seed uint64, n int) []uint64 {
			return stream.Zipf(zipfUniverse, zipfAlpha, uint64(n), stream.OrderRandom, seed)
		},
	},
	// WAL append, the periodic snapshot and its quiesce stall, recovery
	// replay (setup_s) and in-batch coalescing dominate. It is also the
	// workload client-side counted frames should speed up.
	{
		name:     "wire-burst-durable",
		why:      "duplicate-heavy burst frames into an 8-shard durable summary: WAL append, snapshots, coalescing and 16M-item recovery",
		spec:     hh.Spec{Algorithm: "spacesaving", Capacity: 1024, Shards: 8},
		durable:  true,
		universe: zipfUniverse,
		boots:    3,
		trace: func(seed uint64, n int) []uint64 {
			return stream.Burst(zipfUniverse, burstAlpha, uint64(n), batchKeys, burstDup, seed)
		},
	},
	// Reads run beside writes: union-view MergeSummaries rebuilds,
	// concurrent-tier snapshots, blob decode and the HTTP plane do the
	// work. The only workload with queries under ingest and the only
	// one on HTTP.
	{
		name:     "http-query-mix",
		why:      "open-loop HTTP updates, merges and queries together: union-view rebuilds, blob decode and the HTTP plane do the work",
		http:     true,
		spec:     hh.Spec{Algorithm: "spacesaving", Capacity: 4096},
		universe: httpUniverse,
		boots:    9,
		trace: func(seed uint64, n int) []uint64 {
			return stream.Zipf(httpUniverse, zipfAlpha, uint64(n), stream.OrderRandom, seed)
		},
	},
	// The adversarial case: coalescing and counted frames are pure
	// overhead, eviction and arena free-list churn are at their maximum,
	// and the index and slabs do not fit in cache. The prediction for a
	// coalescing-style change is no change.
	{
		name:     "wire-distinct-m64k",
		why:      "all-distinct hashed keys into m=65536: eviction and arena churn at maximum, no repeats for coalescing to use",
		spec:     hh.Spec{Algorithm: "spacesaving", Capacity: 65536},
		universe: distinctCycle,
		hexKeys:  true,
		boots:    9,
		trace: func(_ uint64, n int) []uint64 {
			ids := make([]uint64, n)
			for i := range ids {
				ids[i] = uint64(i % distinctCycle)
			}
			return ids
		},
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// scaled rounds n·scale to a positive multiple of batchKeys.
func scaled(n int, scale float64) int {
	b := int(float64(n)*scale) / batchKeys
	return max(b, 1) * batchKeys
}

// inputs is everything a run sends, generated from the seed alone. The
// daemon only ever sees bytes rendered from these.
type inputs struct {
	trace []uint32 // key ids, cycled by the load loop
	keys  keyer
	// agent is the stream behind blob, the m=1024 summary http-query-mix
	// merges (the replay's absorb probe uses it on every workload).
	agent []uint32
	blob  []byte
	// agentMass is blob's stream mass.
	agentMass float64
}

func makeInputs(w *workload, seed uint64, scale float64) (*inputs, error) {
	in := &inputs{keys: keyer{hex: w.hexKeys, salt: seed * 0x2545f4914f6cdd1d}}
	in.trace = narrow(w.trace(seed, scaled(traceItems, scale)))
	if w.http {
		in.agent = narrow(stream.Zipf(httpUniverse, zipfAlpha, uint64(scaled(agentItems, scale)), stream.OrderRandom, seed+1))
	} else {
		in.agent = in.trace[:min(len(in.trace), scaled(agentItems, scale))]
	}
	// Borrowed keys: the agent clones what it keeps, because the keyer
	// reuses the storage behind every batch.
	agent := hh.New[string](hh.WithCapacity(agentCapacity), hh.WithBorrowedKeys())
	for lo := 0; lo < len(in.agent); lo += batchKeys {
		agent.UpdateBatch(in.keys.batch(in.agent[lo:min(lo+batchKeys, len(in.agent))]))
	}
	var buf bytes.Buffer
	if err := agent.Encode(&buf); err != nil {
		return nil, fmt.Errorf("encoding the agent blob: %w", err)
	}
	in.blob = buf.Bytes()
	in.agentMass = agent.N()
	return in, nil
}

// narrow stores ids in half the memory; every universe fits in 32 bits.
func narrow(ids []uint64) []uint32 {
	out := make([]uint32, len(ids))
	for i, x := range ids {
		out[i] = uint32(x)
	}
	return out
}

// frame returns the ids of the batchKeys-sized frame at trace position
// pos (which the load loops keep frame-aligned).
func (in *inputs) frame(pos int) []uint32 {
	off := pos % len(in.trace)
	return in.trace[off : off+batchKeys]
}

// keyer renders key ids as the strings the daemon sees: decimal, or a
// salted 64-bit hash in hex. The hash is a bijection of the id, so
// distinct ids never collide.
type keyer struct {
	hex  bool
	salt uint64
	buf  []byte
	ends []int
	keys []string
}

func (k *keyer) appendKey(dst []byte, id uint32) []byte {
	if !k.hex {
		return strconv.AppendUint(dst, uint64(id), 10)
	}
	s := k.salt + uint64(id)*0x9e3779b97f4a7c15
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rng.SplitMix64(&s))
	return hex.AppendEncode(dst, b[:])
}

// key renders one id into a fresh string.
func (k *keyer) key(id uint32) string { return string(k.appendKey(nil, id)) }

// batch renders ids into storage reused across calls: the strings alias
// it and stay valid only until the next call. Every consumer (PushBatch,
// PushBinary, UpdateBatch on a borrowed-key summary) copies what it
// keeps before returning.
func (k *keyer) batch(ids []uint32) []string {
	k.buf, k.ends = k.buf[:0], k.ends[:0]
	for _, id := range ids {
		k.buf = k.appendKey(k.buf, id)
		k.ends = append(k.ends, len(k.buf))
	}
	k.keys = k.keys[:0]
	start := 0
	for _, end := range k.ends {
		k.keys = append(k.keys, unsafe.String(unsafe.SliceData(k.buf[start:]), end-start))
		start = end
	}
	return k.keys
}
