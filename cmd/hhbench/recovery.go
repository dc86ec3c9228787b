package main

// The recovery row of the -json suite: a durable registry's boot over a
// preseeded WAL, which is what a crash costs before the daemon serves
// again — the segment scan, each record's decode, and the replayed
// batches' apply, priced per replayed item with its allocations.

import (
	"encoding/json"
	"fmt"
	"os"

	hh "repro"
	"repro/internal/benchjson"
	"repro/internal/persist"
	"repro/internal/registry"
)

// measureRecovery logs keys into a fresh data dir as jsonBatch-key
// batch records of one SPACESAVING summary, outside the timed region,
// then times registry.New plus Halt through timePasses. Halt writes no
// snapshot, so every boot replays the whole log.
func measureRecovery(workload string, shards, m int, keys []string) benchjson.Record {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "hhbench: recovery row: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp("", "hhbench-recovery-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	if err := preseedWAL(dir, hh.Spec{Capacity: m, Shards: shards}, keys); err != nil {
		fail(err)
	}
	cfg := registry.Config{Durability: &hh.DurabilitySpec{Dir: dir, SnapshotInterval: "1h", Fsync: hh.FsyncRotate}}
	rec := timePasses(len(keys), func() {
		reg, err := registry.New(cfg)
		if err != nil {
			fail(err)
		}
		if got := reg.Recovery().ReplayedItems; got != len(keys) {
			fail(fmt.Errorf("a boot replayed %d items, want %d", got, len(keys)))
		}
		if err := reg.Halt(); err != nil {
			fail(err)
		}
	})
	rec.Name = fmt.Sprintf("recovery/%v/%s/%s", hh.AlgoSpaceSaving, workload, shardingName(shards, 0))
	rec.Algo = hh.AlgoSpaceSaving.String()
	rec.Workload = workload
	rec.Shards = shards
	return rec
}

// preseedWAL writes a data dir whose WAL creates the registry's
// "bench" summary from spec and then logs keys in jsonBatch-key batch
// records, through the persist API the daemon logs with.
func preseedWAL(dir string, spec hh.Spec, keys []string) error {
	store, err := persist.Open(persist.Options{Dir: dir, Fsync: persist.FsyncRotate})
	if err != nil {
		return err
	}
	specJSON, err := json.Marshal(spec)
	if err == nil {
		err = store.AppendCreate("bench", specJSON)
	}
	var seq persist.Seq
	for lo := 0; lo < len(keys) && err == nil; lo += jsonBatch {
		err = store.AppendBatch("bench", &seq, keys[lo:min(lo+jsonBatch, len(keys))])
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	return err
}
