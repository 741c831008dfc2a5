// Command shardd is a grminer shard worker daemon: it holds shards of a
// sharded mining deployment and serves the offer/count/ingest protocol of
// internal/rpc to a coordinator (grminer -workers, or grminer.Open with
// EngineConfig.Workers).
//
// Usage:
//
//	shardd -listen 127.0.0.1:9401 -shards 4
//
// -shards N multiplexes N independent worker slots behind the one process:
// the handshake advertises the capacity and the coordinator addresses each
// request to a slot, so a 16-shard layout can run on 4 daemons at 4 slots
// each (or on one daemon at 16).
//
// The daemon serves one coordinator session at a time; when a session ends
// all shard state is discarded and the next connection starts fresh, so a
// fleet of long-lived daemons can serve successive mining runs. The
// coordinator ships each shard's data (schema, node table, edge slice) at
// the start of every session — shardd needs no local data files.
//
// SIGTERM/SIGINT drain gracefully: the listener closes (no new sessions),
// the in-flight session runs until its coordinator disconnects, and shardd
// exits 0. A second signal aborts immediately with exit 1. See
// OPERATIONS.md for the drain-and-replace runbook.
//
// shardd exits non-zero on a malformed handshake or a version-mismatched
// peer: a daemon that a foreign or stale client talks to is a deployment
// error, and failing loudly beats serving wrong answers quietly. A peer
// that merely disappears — a coordinator crashing mid-dial or mid-session —
// only ends that session: the daemon logs it and accepts the next one, so
// one process loss never cascades through the fleet (DESIGN.md §9).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"grminer/internal/rpc"
)

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:9401", "address to serve the shard-worker protocol on")
		shards = flag.Int("shards", 1, "worker slots to multiplex behind this process")
		quiet  = flag.Bool("quiet", false, "suppress per-session log lines")
	)
	flag.Parse()
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "shardd: -shards must be at least 1")
		os.Exit(2)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardd:", err)
		os.Exit(1)
	}
	// The resolved address matters when -listen used port 0.
	fmt.Printf("shardd: protocol %s v%d listening on %s (%d slots)\n", rpc.Magic, rpc.Version, l.Addr(), *shards)

	logger := log.New(os.Stderr, "shardd: ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = nil
	}

	// First signal: close the listener so no new session starts; the serve
	// loop finishes the in-flight session (the coordinator disconnects when
	// its run ends) and returns nil — a graceful drain. Second signal:
	// abort without waiting.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigc
		logger.Printf("draining: no new sessions; waiting for the in-flight session to end")
		l.Close()
		<-sigc
		logger.Printf("second signal: aborting")
		os.Exit(1)
	}()

	if err := rpc.ServeShards(l, *shards, logf); err != nil {
		fmt.Fprintln(os.Stderr, "shardd:", err)
		os.Exit(1)
	}
}
