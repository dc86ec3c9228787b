package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	hh "repro"
	"repro/internal/persist"
)

// Config is the daemon configuration hhserverd loads from its JSON
// config file: the listen address, global limits, and the summaries to
// create at boot. Further summaries can be created at runtime with
// PUT /v1/{name}.
type Config struct {
	// Listen is the address to serve on (overridden by the -addr flag);
	// empty means the daemon default.
	Listen string `json:"listen,omitempty"`
	// WireAddr, when set, additionally serves the hhwire binary ingest
	// protocol (docs/WIRE.md) on this TCP address. HTTP stays the
	// control plane; hhwire handles only batch ingest.
	WireAddr string `json:"wire_addr,omitempty"`
	// UDPAddr, when set, additionally accepts hhwire frames as UDP
	// datagrams on this address — the lossy telemetry path (malformed
	// or unroutable datagrams are dropped, never answered).
	UDPAddr string `json:"udp_addr,omitempty"`
	// MaxBodyBytes bounds the body of a single /update or /merge
	// request; 0 means the 32 MiB default.
	MaxBodyBytes int64 `json:"max_body_bytes,omitempty"`
	// MaxBlobs bounds how many pushed blobs a summary's union view
	// merges flat before compacting them into one nested merge (see
	// Entry's compaction notes); 0 means the default 64.
	MaxBlobs int `json:"max_blobs,omitempty"`
	// Durability, when set, arms crash recovery: ingest is written to a
	// batch WAL before it is applied, periodic atomic snapshots bound
	// replay time, and New recovers the registry from the data
	// directory before serving (docs/DURABILITY.md). Summaries with
	// Spec.Ephemeral, and sketch-backed summaries (whose state has no
	// wire encoding), stay memory-only and restart empty.
	Durability *hh.DurabilitySpec `json:"durability,omitempty"`
	// Summaries maps each summary name to its construction Spec.
	Summaries map[string]hh.Spec `json:"summaries,omitempty"`
}

// DefaultMaxBodyBytes bounds request bodies when the config does not.
const DefaultMaxBodyBytes = 32 << 20

// DefaultMaxBlobs is the per-summary pushed-blob count past which the
// union view compacts.
const DefaultMaxBlobs = 64

// LoadConfig reads and parses a JSON config file, rejecting unknown
// fields so a typo in a stanza fails loudly at boot instead of being
// silently ignored.
func LoadConfig(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	var cfg Config
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("registry: config %s: %w", path, err)
	}
	return cfg, nil
}

// nameRE restricts summary names to one clean URL path segment.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// Registry owns the named summaries a server instance serves.
type Registry struct {
	maxBlobs int
	// maxBody is the body-byte cap, which also bounds the occurrences
	// one counted body may carry (CountedBatch.Parse) on replay.
	maxBody int64
	start   time.Time

	mu      sync.RWMutex
	entries map[string]*Entry //hh:guardedby mu

	// Durability state (nil/zero without a Config.Durability stanza):
	// the persist store, the recovery outcome, and the periodic
	// snapshot loop. See durable.go.
	store     *persist.Store
	snapEvery time.Duration
	recovery  RecoveryReport
	snapMu    sync.Mutex
	lastSig   uint64 //hh:guardedby snapMu
	lastSnap  SnapshotReport
	snapStop  chan struct{}
	snapDone  chan struct{}
	closeOnce sync.Once
}

// New builds a registry and creates an entry per config stanza. With a
// durability stanza it first recovers from the data directory —
// committed snapshot, then WAL tail — and only then reconciles the
// config: a stanza whose name was recovered must carry the same
// (hardened) spec, a new stanza is created fresh, and a recovered
// summary absent from the config (a runtime PUT from a previous life)
// stays.
func New(cfg Config) (*Registry, error) {
	r := &Registry{
		maxBlobs: cfg.MaxBlobs,
		maxBody:  cfg.MaxBodyBytes,
		start:    time.Now(),
		entries:  make(map[string]*Entry),
	}
	if r.maxBlobs <= 0 {
		r.maxBlobs = DefaultMaxBlobs
	}
	if r.maxBody <= 0 {
		r.maxBody = DefaultMaxBodyBytes
	}
	if err := r.boot(cfg); err != nil {
		// A failed boot must not leak the store it opened: its WAL
		// segment stays open, and under fsync "interval" its sync
		// goroutine would run forever.
		if r.store != nil {
			r.store.Close()
		}
		return nil, err
	}
	if r.store != nil {
		r.snapStop = make(chan struct{})
		r.snapDone = make(chan struct{})
		go r.snapshotLoop()
	}
	return r, nil
}

// boot is New's fallible part: recovery, then the config stanzas.
func (r *Registry) boot(cfg Config) error {
	if cfg.Durability != nil {
		if err := r.openDurability(*cfg.Durability, r.maxBody); err != nil {
			return fmt.Errorf("registry: durability: %w", err)
		}
	}
	// Deterministic creation order, so a config error always names the
	// same stanza.
	names := make([]string, 0, len(cfg.Summaries))
	for name := range cfg.Summaries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec := cfg.Summaries[name]
		if e, ok := r.Get(name); ok {
			// Recovered before the config loop ran. The stanza must
			// agree with the recovered spec — silently preferring either
			// side would change bounds behind the operator's back.
			hardened, _, err := hardenSpec(spec)
			if err != nil {
				return fmt.Errorf("registry: summary %q: %w", name, err)
			}
			if hardened != e.spec {
				return fmt.Errorf("registry: summary %q: config spec conflicts with the recovered state (remove the stanza, restore it, or move the data dir)", name)
			}
			continue
		}
		if _, err := r.Create(name, spec); err != nil {
			return fmt.Errorf("registry: summary %q: %w", name, err)
		}
	}
	return nil
}

// Create builds the summary for spec and registers it under name. The
// registry hardens every spec for concurrent serving: deterministic
// counter algorithms get WithConcurrent (queries must be lock-free
// against the ingest handlers), sketch algorithms — which the
// concurrency tier rejects — get at least one locked shard so handler
// goroutines never race on an unsynchronized structure, and every
// summary gets WithBorrowedKeys so the ingest decoders may alias keys
// into reused buffers.
func (r *Registry) Create(name string, spec hh.Spec) (*Entry, error) {
	return r.create(name, spec, true)
}

// create is Create with the WAL create record optional: recovery
// rebuilds summaries before the WAL may be appended to (see
// persist.Open) and logs their creations once replay is done.
func (r *Registry) create(name string, spec hh.Spec, logCreate bool) (*Entry, error) {
	if !nameRE.MatchString(name) {
		return nil, fmt.Errorf("invalid summary name %q (want 1-128 of [A-Za-z0-9._-], starting alphanumeric)", name)
	}
	spec, algo, err := hardenSpec(spec)
	if err != nil {
		return nil, err
	}
	deterministic := algo != hh.AlgoCountMin && algo != hh.AlgoCountSketch
	live, err := hh.NewFromSpec[string](spec)
	if err != nil {
		return nil, err
	}
	e := &Entry{
		name:       name,
		spec:       spec,
		algo:       algo,
		mergeable:  deterministic,
		live:       live,
		capacity:   live.Capacity(),
		maxBlobs:   r.maxBlobs,
		lastScrape: time.Now(),
	}
	if r.store != nil && deterministic && !spec.Ephemeral {
		e.durable = true
		e.store = r.store
		// Every durable creation is WAL-logged before the entry is
		// visible — on recovery boots too, where openDurability logs
		// them after replay, before serving. Replay treats a create for
		// an existing name as a no-op, so the duplicates this writes are
		// harmless, and a summary PUT at runtime is re-creatable from
		// the log alone even before its first snapshot.
		if logCreate {
			if err := e.logCreate(); err != nil {
				return nil, err
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return nil, fmt.Errorf("summary %q already exists", name)
	}
	r.entries[name] = e
	return e, nil
}

// logCreate appends the entry's create record to the WAL.
func (e *Entry) logCreate() error {
	specJSON, err := json.Marshal(e.spec)
	if err != nil {
		return err
	}
	if err := e.store.AppendCreate(e.name, specJSON); err != nil {
		return fmt.Errorf("logging creation of %q: %w", e.name, err)
	}
	return nil
}

// hardenSpec applies the registry's serving hardening to a stanza:
// deterministic counter algorithms get WithConcurrent (queries must be
// lock-free against the ingest handlers) and WithArena (pointer-free
// key storage — O(1) GC objects per live summary), sketch algorithms —
// which the concurrency tier rejects — get at least one locked shard
// so handler goroutines never race on an unsynchronized structure, and
// every summary gets WithBorrowedKeys so the ingest decoders may alias
// keys into reused buffers. Hardening is idempotent, which is what
// lets recovery compare a config stanza against an already-hardened
// spec from a snapshot manifest.
func hardenSpec(spec hh.Spec) (hh.Spec, hh.Algo, error) {
	algo := hh.AlgoSpaceSaving
	if spec.Algorithm != "" {
		a, err := hh.ParseAlgo(spec.Algorithm)
		if err != nil {
			return spec, algo, err
		}
		algo = a
	}
	if algo != hh.AlgoCountMin && algo != hh.AlgoCountSketch {
		spec.Concurrent = true
		spec.Arena = true
	} else if spec.Shards < 1 {
		spec.Shards = 1
	}
	spec.BorrowedKeys = true
	return spec, algo, nil
}

// Get returns the named entry.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Names returns the registered summary names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Len returns the number of registered summaries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Uptime reports how long the registry has been serving.
func (r *Registry) Uptime() time.Duration { return time.Since(r.start) }

// Entry is one named summary: the live concurrently written structure
// fed by /update, plus the blobs remote agents pushed via /merge.
//
// Queries answer over the union view — MergeSummaries of every pushed
// blob, in arrival order, followed by the live summary — exactly the
// in-process Section 6.2 merge, so Theorem 11 error metadata pushed
// over the wire survives into query bounds unchanged. Each blob is
// absorbed once, on arrival, into base (an hh.Merger), so a rebuild
// clones that accumulated state and absorbs only the live summary:
// O(live counters) per rebuild, O(blob counters) once per /merge, and
// memory bounded by the capacity however many blobs arrive. The view
// is cached and rebuilt only when ingest advanced or a new blob
// arrived; while no blob has been pushed, queries go straight to the
// live summary's lock-free concurrent-tier reads. The view is always
// a single flat merge over the original inputs — never a nested
// re-merge, which would widen bounds by the intermediate Δ-floors —
// until maxBlobs blobs have accumulated: the next one compacts them
// into one merged summary that seeds a fresh base, trading exactly
// that widening.
type Entry struct {
	name      string
	spec      hh.Spec
	algo      hh.Algo
	mergeable bool
	live      hh.Summary[string]
	capacity  int
	maxBlobs  int

	// mergeMu guards base (nil until the first blob), the number of
	// inputs it holds, and remoteMass; mergeGen bumps per accepted blob
	// (and compaction), versioning the cached view.
	mergeMu    sync.Mutex
	base       *hh.Merger[string] //hh:guardedby mergeMu
	baseInputs int                //hh:guardedby mergeMu
	remoteMass float64            //hh:guardedby mergeMu
	mergeGen   atomic.Uint64

	// view caches the merged union; viewMu single-flights rebuilds.
	viewMu  sync.Mutex
	view    atomic.Pointer[viewState]
	snapGen atomic.Uint64

	items   atomic.Uint64
	batches atomic.Uint64
	blobs   atomic.Uint64

	// Durability plumbing (zero unless the registry has a store and the
	// spec is neither sketch-backed nor ephemeral). durMu makes the
	// {WAL append, live apply} pair atomic against snapshot capture:
	// ingest holds it shared across the pair, the snapshot writer holds
	// it exclusive while reading walSeq and encoding the state, so a
	// captured blob covers exactly the batches of sequences 1..walSeq —
	// the invariant the manifest's per-summary "seq" pin rests on.
	// walSeq is advanced under the WAL's append lock (while durMu is
	// held shared) and read only under durMu exclusive.
	durable bool
	store   *persist.Store
	durMu   sync.RWMutex
	walSeq  persist.Seq
	// restored counts recovery inputs (snapshot base + replayed blobs),
	// distinct from blobs, which counts live /merge traffic.
	restored atomic.Uint64

	// rateMu guards the scrape-to-scrape ingest-rate bookkeeping.
	rateMu     sync.Mutex
	lastItems  uint64    //hh:guardedby rateMu
	lastScrape time.Time //hh:guardedby rateMu
}

// viewState is published through an atomic.Pointer: frozen once built.
//
//hh:immutable
type viewState struct {
	sum   hh.Summary[string]
	liveN float64
	gen   uint64
	// mu serializes queries against sum: a MergeSummaries result is a
	// plain summary with the library's single-threaded contract (its
	// scratch-reusing queries mutate backend state), while any number
	// of HTTP handler goroutines may hold the same cached view.
	mu sync.Mutex
}

// View is the handle queries run against: either the live summary
// (lock-free concurrent-tier reads; mu nil) or a cached merged union,
// whose plain summary is serialized through the view's mutex. The
// underlying counters never change once a view is built, so per-call
// locking still yields internally consistent responses.
//
//hh:immutable
type View struct {
	sum hh.Summary[string]
	mu  *sync.Mutex
}

func (v View) lock() {
	if v.mu != nil {
		v.mu.Lock()
	}
}

func (v View) unlock() {
	if v.mu != nil {
		v.mu.Unlock()
	}
}

// N returns the mass the view answers against.
func (v View) N() float64 {
	v.lock()
	defer v.unlock()
	return v.sum.N()
}

// Len returns the view's tracked-counter count.
func (v View) Len() int {
	v.lock()
	defer v.unlock()
	return v.sum.Len()
}

// Guarantee returns the view's (A, B) tail-guarantee constants.
func (v View) Guarantee() (hh.TailGuarantee, bool) {
	v.lock()
	defer v.unlock()
	return v.sum.Guarantee()
}

// Top returns the view's k largest counters.
func (v View) Top(k int) []hh.WeightedEntry[string] {
	v.lock()
	defer v.unlock()
	return v.sum.TopAppend(nil, k)
}

// Estimate returns the view's point estimate for item.
func (v View) Estimate(item string) float64 {
	v.lock()
	defer v.unlock()
	return v.sum.Estimate(item)
}

// EstimateBounds returns the view's certain bounds for item.
func (v View) EstimateBounds(item string) (lo, hi float64) {
	v.lock()
	defer v.unlock()
	return v.sum.EstimateBounds(item)
}

// HeavyHitters returns the view's phi-heavy hitters.
func (v View) HeavyHitters(phi float64) []hh.Result[string] {
	v.lock()
	defer v.unlock()
	return v.sum.HeavyHitters(phi)
}

// Encode streams the view's v2 wire form.
func (v View) Encode(w io.Writer) error {
	v.lock()
	defer v.unlock()
	return v.sum.Encode(w)
}

// Name returns the entry's registry name.
func (e *Entry) Name() string { return e.name }

// Spec returns the (hardened) construction spec.
func (e *Entry) Spec() hh.Spec { return e.spec }

// Live returns the live ingest summary.
func (e *Entry) Live() hh.Summary[string] { return e.live }

// IngestBatch records one occurrence of every key — the /update fast
// path, feeding the concurrent tier's batch ingestion (one hash per
// key, pooled partition scratch, zero allocations past the keys
// themselves, WAL append from the log's own scratch when durable).
//
// On a durable entry the batch is WAL-logged before it is applied; an
// error means the record is not durable and nothing was applied — the
// caller must refuse the batch (500 the request, kill the connection),
// because acknowledging it would promise durability the log cannot
// deliver.
func (e *Entry) IngestBatch(keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	return e.ingest(keys, nil)
}

// IngestCounted records one parsed counted body — the hhwire counted
// frame (docs/WIRE.md, "Counted frames") — through
// Summary.UpdateCounts, so grouping compositions pay per distinct key
// rather than per occurrence. On a durable entry the body is
// WAL-logged verbatim, as one counted record, before it is applied;
// the error contract is IngestBatch's. The ingest metrics count
// b.Items occurrences, exactly what the expanded v1 batch would count.
func (e *Entry) IngestCounted(b *CountedBatch) error {
	if len(b.Keys) == 0 {
		return nil
	}
	return e.ingest(nil, b)
}

// ingest logs (when durable) and then applies one batch: keys, or the
// counted body b when b is non-nil.
func (e *Entry) ingest(keys []string, b *CountedBatch) error {
	if e.durable {
		e.durMu.RLock()
		var err error
		if b == nil {
			err = e.store.AppendBatch(e.name, &e.walSeq, keys)
		} else {
			err = e.store.AppendCounted(e.name, &e.walSeq, b.Body)
		}
		if err == nil {
			e.apply(keys, b)
		}
		e.durMu.RUnlock()
		if err != nil {
			return err
		}
	} else {
		e.apply(keys, b)
	}
	n := uint64(len(keys))
	if b != nil {
		n = b.Items
	}
	e.items.Add(n)
	e.batches.Add(1)
	return nil
}

// apply feeds one batch — keys, or the counted body b — to the live
// summary.
func (e *Entry) apply(keys []string, b *CountedBatch) {
	if b == nil {
		e.live.UpdateBatch(keys)
	} else {
		e.live.UpdateCounts(b.Keys, b.Counts)
	}
}

// AbsorbBlob decodes one encoded summary blob (flat "HHSUM2" or
// windowed "HHWIN2" — Decode detects the magic) and adds it to the
// entry's merge set, returning the blob's stream mass. The blob must
// be string-keyed; a uint64-keyed blob is rejected by the decoder's
// key-kind check. Rejected blobs leave the entry untouched.
func (e *Entry) AbsorbBlob(r io.Reader) (float64, error) {
	if !e.mergeable {
		return 0, fmt.Errorf("summary %q is sketch-backed (%v) and cannot absorb merges", e.name, e.algo)
	}
	if !e.durable {
		s, err := hh.Decode[string](r)
		if err != nil {
			return 0, err
		}
		return e.absorbDecoded(s, true)
	}
	// Durable path: the raw bytes are the WAL record, so buffer them
	// before decoding (merge is the control plane — the copy is fine).
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	s, err := hh.Decode[string](bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	e.durMu.RLock()
	defer e.durMu.RUnlock()
	if err := e.store.AppendBlob(e.name, &e.walSeq, data); err != nil {
		return 0, err
	}
	return e.absorbDecoded(s, true)
}

// absorbDecoded absorbs one decoded summary into base, compacting past
// maxBlobs. Shared by the /merge path and recovery's blob-record
// replay. counted selects whether the blobs metric advances (recovery
// inputs count as restored instead).
func (e *Entry) absorbDecoded(s hh.Summary[string], counted bool) (float64, error) {
	mass := s.N()
	e.mergeMu.Lock()
	defer e.mergeMu.Unlock()
	if e.base == nil {
		e.base = hh.NewMerger[string](e.capacity)
	}
	if err := e.base.Add(s); err != nil {
		return 0, err
	}
	e.baseInputs++
	e.remoteMass += mass
	if e.baseInputs > e.maxBlobs {
		// Compact: the blobs so far become one nested merge that seeds a
		// fresh base. Bounds widen by the compacted inputs' Δ-floors;
		// mass and estimates are unaffected.
		compacted, err := e.base.Merge()
		if err != nil {
			return 0, err
		}
		base := hh.NewMerger[string](e.capacity)
		if err := base.Add(compacted); err != nil {
			return 0, err
		}
		e.base, e.baseInputs = base, 1
	}
	e.mergeGen.Add(1)
	if counted {
		e.blobs.Add(1)
	} else {
		e.restored.Add(1)
	}
	return mass, nil
}

// union builds the state queries and snapshots answer over: the live
// summary itself until a blob has been absorbed, then base.Merge(live)
// — the blobs in arrival order, then live — or base.Merge() while live
// is still empty. Merge leaves base untouched and pins a live snapshot
// covering every write completed before the call.
func (e *Entry) union() (hh.Summary[string], error) {
	e.mergeMu.Lock()
	defer e.mergeMu.Unlock()
	switch {
	case e.baseInputs == 0:
		return e.live, nil
	case e.live.N() > 0:
		return e.base.Merge(e.live)
	default:
		return e.base.Merge()
	}
}

// View returns the handle queries answer against: the live summary
// itself while nothing has been pushed via /merge (lock-free
// concurrent-tier reads), otherwise a cached union of every pushed
// blob and the live summary (see Entry). The cache is keyed by the
// merge generation and the live mass at build time, so a view is
// rebuilt only when something actually changed; rebuilds are
// single-flighted (a query arriving during another's rebuild serves
// the previous view — bounded staleness, exactly the concurrency
// tier's trade — and only blocks when there is no previous view yet),
// cost O(live counters), and never block ingest.
func (e *Entry) View() (View, error) {
	gen := e.mergeGen.Load()
	if gen == 0 {
		return View{sum: e.live}, nil
	}
	liveN := e.live.N()
	if v := e.view.Load(); v != nil && v.gen == gen && v.liveN == liveN {
		return View{sum: v.sum, mu: &v.mu}, nil
	}
	if !e.viewMu.TryLock() {
		// Another query is rebuilding: serve the bounded-stale cached
		// view rather than queueing behind the merge.
		if v := e.view.Load(); v != nil {
			return View{sum: v.sum, mu: &v.mu}, nil
		}
		e.viewMu.Lock() // nothing to serve yet; wait for the first build
	}
	defer e.viewMu.Unlock()
	gen = e.mergeGen.Load()
	liveN = e.live.N()
	if v := e.view.Load(); v != nil && v.gen == gen && v.liveN == liveN {
		return View{sum: v.sum, mu: &v.mu}, nil
	}
	merged, err := e.union()
	if err != nil {
		return View{}, err
	}
	v := &viewState{sum: merged, liveN: liveN, gen: gen}
	e.view.Store(v)
	e.snapGen.Add(1)
	return View{sum: merged, mu: &v.mu}, nil
}

// Stats is the per-summary block of /metricsz.
type Stats struct {
	Algorithm string `json:"algorithm"`
	// N is the total served mass: live ingest plus every pushed blob.
	N float64 `json:"n"`
	// Len is the tracked-counter count of the current query view.
	Len      int `json:"len"`
	Capacity int `json:"capacity"`
	// IngestedItems and IngestedBatches count the /update traffic;
	// MergedBlobs the accepted /merge pushes.
	IngestedItems   uint64 `json:"ingested_items"`
	IngestedBatches uint64 `json:"ingested_batches"`
	MergedBlobs     uint64 `json:"merged_blobs"`
	// SnapshotGeneration counts union-view rebuilds (0 until a blob is
	// pushed: pure-ingest queries serve the concurrent tier directly).
	SnapshotGeneration uint64 `json:"snapshot_generation"`
	// IngestRate is the /update item rate (items/s) averaged since the
	// previous /metricsz scrape.
	IngestRate float64 `json:"ingest_rate"`
	// Durable reports whether the summary is WAL-logged and
	// snapshotted; WALSeq is its last allocated WAL sequence number and
	// RestoredInputs how many recovery inputs (snapshot base + replayed
	// merge blobs) back the current state. All zero without durability.
	Durable        bool   `json:"durable,omitempty"`
	WALSeq         uint64 `json:"wal_seq,omitempty"`
	RestoredInputs uint64 `json:"restored_inputs,omitempty"`
	// Memory is the live summary's arena footprint — present only when
	// the summary stores its keys in arena slabs (the registry arms
	// WithArena on every deterministic stanza).
	Memory *MemStats `json:"memory,omitempty"`
}

// MemStats is the /metricsz memory block of one arena-backed summary.
type MemStats struct {
	// ArenaBytes is the total slab backing holding the tracked keys;
	// Slabs its slab count.
	ArenaBytes uint64 `json:"arena_bytes"`
	Slabs      int    `json:"slabs"`
	// LiveBytes/FreeBytes split the slab regions into live keys and
	// free-list parking; LiveRatio = live/(live+free) is the slab
	// occupancy (1.0 = no churn slack).
	LiveBytes uint64  `json:"live_bytes"`
	FreeBytes uint64  `json:"free_bytes"`
	LiveRatio float64 `json:"live_ratio"`
	LiveKeys  int     `json:"live_keys"`
	// IndexSlots/IndexBytes size the open-addressing index arrays.
	IndexSlots int    `json:"index_slots"`
	IndexBytes uint64 `json:"index_bytes"`
	// BytesPerTrackedKey is (ArenaBytes+IndexBytes)/LiveKeys — the
	// capacity-planning number (see docs/OPERATIONS.md).
	BytesPerTrackedKey float64 `json:"bytes_per_tracked_key"`
}

// readMemory assembles the memory block from the live summary's arena
// walk; nil when the summary is map-backed.
func readMemory(s hh.Summary[string]) *MemStats {
	m, ok := s.Memory()
	if !ok {
		return nil
	}
	ms := &MemStats{
		ArenaBytes:         m.ArenaBytes,
		Slabs:              m.ArenaSlabs,
		LiveBytes:          m.LiveBytes,
		FreeBytes:          m.FreeBytes,
		LiveKeys:           m.LiveKeys,
		IndexSlots:         m.IndexSlots,
		IndexBytes:         m.IndexBytes,
		BytesPerTrackedKey: m.BytesPerTrackedKey(),
	}
	if t := m.LiveBytes + m.FreeBytes; t > 0 {
		ms.LiveRatio = float64(m.LiveBytes) / float64(t)
	}
	return ms
}

// ReadStats assembles the metrics block, advancing the scrape-window
// rate bookkeeping.
func (e *Entry) ReadStats() Stats {
	items := e.items.Load()
	e.rateMu.Lock()
	now := time.Now()
	elapsed := now.Sub(e.lastScrape).Seconds()
	var rate float64
	if elapsed > 0 {
		rate = float64(items-e.lastItems) / elapsed
	}
	e.lastItems = items
	e.lastScrape = now
	e.rateMu.Unlock()

	// Report against the cached view when one exists; never force a
	// merge from the metrics path.
	length := e.live.Len()
	if v := e.view.Load(); v != nil {
		length = v.sum.Len()
	}
	e.mergeMu.Lock()
	remoteMass := e.remoteMass
	e.mergeMu.Unlock()
	return Stats{
		Algorithm:          e.algo.String(),
		N:                  e.live.N() + remoteMass,
		Len:                length,
		Capacity:           e.capacity,
		IngestedItems:      items,
		IngestedBatches:    e.batches.Load(),
		MergedBlobs:        e.blobs.Load(),
		SnapshotGeneration: e.snapGen.Load(),
		IngestRate:         rate,
		Durable:            e.durable,
		WALSeq:             e.walSeq.Load(),
		RestoredInputs:     e.restored.Load(),
		Memory:             readMemory(e.live),
	}
}
