// Package client is the typed Go client for hhserverd, covering both
// of the daemon's planes.
//
// # HTTP control plane
//
// Client wraps the HTTP/JSON API: agents use it to push raw batches
// (Push/PushBinary) or locally summarized blobs (MergeBlob/MergeSummary
// — the Theorem 11 wire-level merge), and consumers to run
// bound-carrying queries (Top, HeavyHitters, Estimate) or pull portable
// snapshots (Snapshot, Encode). One Client addresses one named summary
// on one server; it is safe for concurrent use.
//
// # hhwire ingest plane
//
// WireConn speaks hhwire, the persistent binary ingest protocol
// specified in docs/WIRE.md: length-prefixed frames on one long-lived
// raw TCP connection (DialWire), or one self-contained frame per UDP
// datagram (DialWireUDP) where losing batches beats backpressure.
// Push buffers and auto-frames keys, PushBatch sends a batch as one
// frame, and Flush — TCP only — is an acknowledged sync barrier:
// when it returns, everything pushed before it is ingested. A frame
// that repeats keys goes out as a counted frame, each distinct key
// once with its count, which the server parses, logs and applies per
// distinct key; it needs a server that speaks counted frames, so
// upgrade servers before clients. Folding sends the frame in grouped
// order: each key's later occurrences move up to its first one (a b c
// a arrives as a a b c). N, every key's count and every bound are
// unchanged, but decayed summaries weight the moved occurrences by
// their new positions — within a factor e^(±λ(F−1)) per key for a
// frame of F occurrences — and unsharded count windows may count them
// in a neighbouring epoch; keep λ·F small for short decay horizons
// (docs/WIRE.md, "Client folding"). Writes
// that fail redial once, so a server restart costs at most the
// unacknowledged window, never a surfaced error for a transient blip.
//
// Use hhwire for sustained high-volume ingest (no per-request headers,
// ~1.5x loopback HTTP throughput) and the HTTP plane for everything
// else — creating summaries, queries, merges, metrics.
package client
