package heavyhitters

import (
	"fmt"
	"time"
)

// Spec is the JSON-portable form of a summary configuration: the
// config-file counterpart of the Option list New takes. It exists for
// deployments that construct summaries from declarative configuration —
// hhserverd's registry config is a map of names to Specs — and for any
// tool that wants to ship a summary recipe over the wire.
//
// The zero Spec resolves exactly like the zero-option New call: an
// unsharded SPACESAVING summary with the default counter budget. Fields
// mirror the options one-to-one; see each option's documentation for
// the semantics.
type Spec struct {
	// Algorithm names the backing algorithm as accepted by ParseAlgo
	// ("spacesaving" | "frequent" | "lossycounting" | "countmin" |
	// "countsketch"); empty means spacesaving.
	Algorithm string `json:"algorithm,omitempty"`
	// Capacity is the counter budget m (WithCapacity). Mutually
	// exclusive with Epsilon/Phi.
	Capacity int `json:"capacity,omitempty"`
	// Epsilon and Phi size the summary from accuracy targets
	// (WithErrorBudget); Phi may be zero to size from Epsilon alone.
	Epsilon float64 `json:"epsilon,omitempty"`
	Phi     float64 `json:"phi,omitempty"`
	// Shards partitions the summary across p locked shards (WithShards).
	Shards int `json:"shards,omitempty"`
	// Window covers the last n items with an epoch ring (WithWindow);
	// TickWindow covers a wall-clock duration instead (WithTickWindow,
	// Go duration syntax, e.g. "5m"); Epochs sets the ring size E
	// (WithEpochs).
	Window     uint64 `json:"window,omitempty"`
	TickWindow string `json:"tick_window,omitempty"`
	Epochs     int    `json:"epochs,omitempty"`
	// Decay applies exponential decay with rate lambda (WithDecay).
	Decay float64 `json:"decay,omitempty"`
	// Weighted selects the real-valued Section 6.1 variants
	// (WithWeighted).
	Weighted bool `json:"weighted,omitempty"`
	// Concurrent wraps the composition in the lock-free read tier
	// (WithConcurrent).
	Concurrent bool `json:"concurrent,omitempty"`
	// BorrowedKeys makes the summary clone retained keys so ingest
	// paths may alias keys into reused buffers (WithBorrowedKeys).
	BorrowedKeys bool `json:"borrowed_keys,omitempty"`
	// Arena stores string keys in pointer-free byte slabs (WithArena).
	// A no-op for configurations the arena does not apply to — hhserverd
	// sets it on every string-keyed counter summary.
	Arena bool `json:"arena,omitempty"`
	// Seed fixes the hash/sketch seed (WithSeed); 0 means unset.
	Seed uint64 `json:"seed,omitempty"`
	// Ephemeral excludes the summary from durability: on a daemon with
	// a data directory configured, an ephemeral summary is neither
	// WAL-logged nor snapshotted and restarts empty. Construction
	// ignores it (there is no corresponding Option) — it is a serving
	// policy, read by hhserverd's registry.
	Ephemeral bool `json:"ephemeral,omitempty"`
	// Depth sets the sketch row count (WithDepth); 0 means default.
	Depth int `json:"depth,omitempty"`
}

// Options maps the Spec to the Option list New understands. Name and
// syntax errors (an unknown algorithm, an unparseable tick_window) are
// reported here; combination errors (say, WithDecay on LOSSYCOUNTING)
// surface as New's usual validation panic, exactly as they would with
// hand-written options.
func (sp Spec) Options() ([]Option, error) {
	var opts []Option
	if sp.Algorithm != "" {
		a, err := ParseAlgo(sp.Algorithm)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithAlgorithm(a))
	}
	if sp.Capacity != 0 {
		opts = append(opts, WithCapacity(sp.Capacity))
	}
	if sp.Epsilon != 0 || sp.Phi != 0 {
		opts = append(opts, WithErrorBudget(sp.Epsilon, sp.Phi))
	}
	if sp.Shards != 0 {
		opts = append(opts, WithShards(sp.Shards))
	}
	if sp.Window != 0 {
		opts = append(opts, WithWindow(sp.Window))
	}
	if sp.TickWindow != "" {
		d, err := time.ParseDuration(sp.TickWindow)
		if err != nil {
			return nil, fmt.Errorf("heavyhitters: tick_window: %v", err)
		}
		opts = append(opts, WithTickWindow(d, nil))
	}
	if sp.Epochs != 0 {
		opts = append(opts, WithEpochs(sp.Epochs))
	}
	if sp.Decay != 0 {
		opts = append(opts, WithDecay(sp.Decay))
	}
	if sp.Weighted {
		opts = append(opts, WithWeighted())
	}
	if sp.Concurrent {
		opts = append(opts, WithConcurrent())
	}
	if sp.BorrowedKeys {
		opts = append(opts, WithBorrowedKeys())
	}
	if sp.Arena {
		opts = append(opts, WithArena())
	}
	if sp.Seed != 0 {
		opts = append(opts, WithSeed(sp.Seed))
	}
	if sp.Depth != 0 {
		opts = append(opts, WithDepth(sp.Depth))
	}
	return opts, nil
}

// NewFromSpec builds a Summary from a Spec, converting New's validation
// panics into errors — the constructor for callers holding untrusted
// declarative configuration (a daemon loading a config file must reject
// a bad stanza, not crash).
func NewFromSpec[K comparable](sp Spec) (s Summary[K], err error) {
	opts, err := sp.Options()
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return New[K](opts...), nil
}
