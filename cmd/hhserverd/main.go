// Command hhserverd is the multi-tenant heavy-hitter serving daemon:
// it owns a named registry of summaries (declared in a JSON config
// file, or created at runtime with PUT /v1/{name}) and serves the
// distributed-ingest HTTP API — batch ingest, wire-level Theorem 11
// blob merging, bound-carrying queries, and portable snapshots — plus,
// when configured, the hhwire binary ingest protocol (docs/WIRE.md)
// over persistent TCP connections and lossy UDP datagrams.
//
// Usage:
//
//	hhserverd -config serverd.json
//	hhserverd -addr 127.0.0.1:0            # empty registry, ephemeral port
//	hhserverd -addr 127.0.0.1:0 -wire-addr 127.0.0.1:0 -udp-addr 127.0.0.1:0
//	hhserverd -config serverd.json -data-dir /var/lib/hhserverd
//
// Config file schema (registry.Config):
//
//	{
//	  "listen": "127.0.0.1:8070",
//	  "wire_addr": "127.0.0.1:8071",
//	  "udp_addr": "127.0.0.1:8072",
//	  "max_body_bytes": 33554432,
//	  "max_blobs": 64,
//	  "durability": {"dir": "/var/lib/hhserverd", "snapshot_interval": "1m", "fsync": "interval"},
//	  "summaries": {
//	    "queries": {"algorithm": "spacesaving", "capacity": 2048, "shards": 8},
//	    "clicks":  {"epsilon": 0.001, "window": 1000000}
//	  }
//	}
//
// With a "durability" stanza (or -data-dir, which enables it with
// defaults), ingest is WAL-logged before it is applied and periodic
// atomic snapshots bound replay time; on boot the daemon recovers the
// registry from the data directory — committed snapshot, then WAL
// tail — and prints a recovery report after the listening line. A
// graceful drain writes a final snapshot; a kill -9 loses at most the
// unsynced fsync window (zero with "fsync": "always"). The formats and
// guarantees are specified in docs/DURABILITY.md, the runbook in
// docs/OPERATIONS.md.
//
// Each summary stanza is a heavyhitters.Spec; the registry forces
// WithConcurrent onto deterministic counter algorithms so queries are
// lock-free against ingest, and WithBorrowedKeys onto every summary so
// the ingest decoders parse zero-copy. On startup the daemon prints
// "hhserverd listening on <addr>" with the bound address — with
// ":0" that is the kernel-assigned port, which scripts (and the e2e
// CI job) parse — plus "hhserverd wire listening on <addr>" and
// "hhserverd udp listening on <addr>" for the hhwire listeners when
// enabled. SIGINT/SIGTERM drain in-flight requests and connections
// and exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	hh "repro"
	"repro/internal/registry"
	"repro/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", "", `HTTP listen address (overrides the config file's "listen"; default :8070)`)
		wireAddr = flag.String("wire-addr", "", `hhwire TCP ingest address (overrides "wire_addr"; empty disables)`)
		udpAddr  = flag.String("udp-addr", "", `hhwire UDP ingest address (overrides "udp_addr"; empty disables)`)
		cfgPath  = flag.String("config", "", "JSON config file (registry.Config schema); empty starts an empty registry")
		dataDir  = flag.String("data-dir", "", `durability data directory (overrides the config "durability" stanza's dir; enables durability with defaults when the config has none)`)
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: hhserverd [-addr host:port] [-wire-addr host:port] [-udp-addr host:port] [-data-dir dir] [-config serverd.json]")
		os.Exit(2)
	}
	// Installed before recovery and before anything serves: a signal
	// that arrives early waits in the buffered channel and drains once
	// serving starts, instead of killing the daemon undrained.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var cfg registry.Config
	if *cfgPath != "" {
		var err error
		if cfg, err = registry.LoadConfig(*cfgPath); err != nil {
			fmt.Fprintf(os.Stderr, "hhserverd: %v\n", err)
			os.Exit(1)
		}
	}
	listen := cfg.Listen
	if *addr != "" {
		listen = *addr
	}
	if listen == "" {
		listen = ":8070"
	}
	if *wireAddr != "" {
		cfg.WireAddr = *wireAddr
	}
	if *udpAddr != "" {
		cfg.UDPAddr = *udpAddr
	}
	if *dataDir != "" {
		if cfg.Durability == nil {
			cfg.Durability = &hh.DurabilitySpec{}
		}
		cfg.Durability.Dir = *dataDir
	}

	reg, err := registry.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhserverd: %v\n", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhserverd: %v\n", err)
		os.Exit(1)
	}
	// The parseable startup line: scripts read the bound address off it.
	fmt.Printf("hhserverd listening on %s (%d summaries)\n", ln.Addr(), reg.Len())

	done := make(chan error, 3)

	// hhwire listeners: same registry, same summaries, no HTTP in the
	// ingest path. Started before the HTTP server so the wire startup
	// lines always follow the parseable HTTP line in order.
	var wl *wire.Listener
	if cfg.WireAddr != "" || cfg.UDPAddr != "" {
		wl = wire.NewListener(reg, cfg.MaxBodyBytes)
		if cfg.WireAddr != "" {
			wln, err := net.Listen("tcp", cfg.WireAddr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hhserverd: wire: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("hhserverd wire listening on %s\n", wln.Addr())
			go func() { done <- wl.ServeTCP(wln) }()
		}
		if cfg.UDPAddr != "" {
			pc, err := net.ListenPacket("udp", cfg.UDPAddr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hhserverd: udp: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("hhserverd udp listening on %s\n", pc.LocalAddr())
			go func() { done <- wl.ServeUDP(pc) }()
		}
	}

	// The recovery report follows the parseable address lines (scripts
	// read those by position; these are free-form).
	printRecovery(reg.Recovery())

	srv := &http.Server{
		Handler:           registry.NewServer(reg, cfg.MaxBodyBytes),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { done <- srv.Serve(ln) }()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "hhserverd: %v\n", err)
			os.Exit(1)
		}
	case s := <-sig:
		fmt.Printf("hhserverd: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		failed := false
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "hhserverd: shutdown: %v\n", err)
			failed = true
		}
		if wl != nil {
			if err := wl.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "hhserverd: wire shutdown: %v\n", err)
				failed = true
			}
			st := wl.Stats()
			fmt.Printf("hhserverd wire drained: %d frames, %d datagrams, %d items, %d kills, %d drops\n",
				st.Frames, st.Datagrams, st.Items, st.Kills, st.Drops)
		}
		// With durability on, the drain writes a final snapshot so the
		// next boot restarts from the snapshot alone (empty WAL tail).
		if reg.Durable() {
			if err := reg.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "hhserverd: final snapshot: %v\n", err)
				failed = true
			} else {
				snap := reg.LastSnapshot()
				fmt.Printf("hhserverd durability: final snapshot committed (%d summaries)\n", snap.Summaries)
			}
		}
		if failed {
			os.Exit(1)
		}
	}
}

// printRecovery writes the boot recovery report — after the parseable
// listening line, one line per fact, so operators (and the e2e crash
// tests) can read exactly what state survived.
func printRecovery(rep registry.RecoveryReport) {
	if !rep.Enabled {
		return
	}
	snap := rep.Snapshot
	if snap == "" {
		snap = "none"
	}
	tail := "tail clean"
	if rep.WAL.Torn {
		tail = fmt.Sprintf("torn tail at %s+%d (truncated)", rep.WAL.TornSegment, rep.WAL.TornOffset)
	}
	fmt.Printf("hhserverd durability: data dir %s, snapshot %s, wal %d segments %d records, %s\n",
		rep.DataDir, snap, rep.WAL.Segments, rep.WAL.Records, tail)
	fmt.Printf("hhserverd durability: replayed %d batches (%d items), %d blobs; %d deduped, %d unroutable\n",
		rep.ReplayedBatches, rep.ReplayedItems, rep.ReplayedBlobs, rep.Deduped, rep.Unroutable)
	for _, s := range rep.Summaries {
		src := "wal"
		if s.FromSnapshot {
			src = "snapshot+wal"
		}
		fmt.Printf("hhserverd recovered %q: seq %d, mass %.1f (%s)\n", s.Name, s.Seq, s.Mass, src)
	}
	var rate float64
	if wal := rep.WALReplay.Seconds(); wal > 0 {
		rate = float64(rep.ReplayedItems) / wal / 1e6
	}
	fmt.Printf("hhserverd durability: recovery took %.2f s (snapshot %.2f s, wal %.2f s, %.1f M items/s)\n",
		(rep.SnapshotLoad + rep.WALReplay).Seconds(), rep.SnapshotLoad.Seconds(), rep.WALReplay.Seconds(), rate)
}
