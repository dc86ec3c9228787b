// Package registry implements the multi-tenant heavy-hitter serving
// tier behind cmd/hhserverd: a named registry of Summary[string]
// instances built from declarative JSON Specs, plus the HTTP surface
// that ingests batches, absorbs encoded summary blobs pushed by remote
// agents (wire-level Theorem 11 merging), and answers bound-carrying
// queries — all against a live, concurrently written summary.
//
// The split from cmd/hhserverd keeps every behavior testable in
// process: the daemon binary is a thin flag-parsing shell around
// New + NewServer + net/http, and the hhwire binary ingest listener
// (internal/wire) routes frames into the same Entry ingest path the
// HTTP handlers use.
//
// Queries answer over the union view — MergeSummaries of every pushed
// blob in arrival order, then the live summary — cached per Entry and
// rebuilt single-flight only when ingest advanced or a blob arrived.
// Each blob is absorbed once, on arrival, into the entry's hh.Merger,
// so a rebuild costs O(live counters) however many blobs arrived; see
// Entry and Entry.View for the exact cost and consistency contract.
package registry
