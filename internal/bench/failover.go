package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"grminer/internal/core"
	"grminer/internal/graph"
	"grminer/internal/rpc"
)

// FailoverWorkerStat is one shard worker's post-run health in the failover
// report.
type FailoverWorkerStat struct {
	Shard           int    `json:"shard"`
	Addr            string `json:"addr"`
	Live            bool   `json:"live"`
	Retries         int64  `json:"retries"`
	Replacements    int64  `json:"replacements"`
	ReplayedBatches int64  `json:"replayed_batches"`
	CheckpointEpoch int64  `json:"checkpoint_epoch"`
	LogSuffixLen    int    `json:"log_suffix_len"`
}

// RecoveryPoint is one stream length on the recovery-latency curve: the same
// kill-and-replace drill run after StreamBatches acknowledged batches. With
// checkpointing the replayed-batch count (and so recovery latency) must stay
// bounded by the checkpoint interval however long the stream ran first —
// the curve is flat where pre-checkpoint recovery scaled linearly.
type RecoveryPoint struct {
	StreamBatches   int     `json:"stream_batches"`
	ReplayedBatches int64   `json:"replayed_batches"`
	RecoverySeconds float64 `json:"recovery_seconds"`
}

// FailoverReport is the machine-readable snapshot written to
// BENCH_failover.json: a remote sharded incremental run that loses a worker
// daemon mid-stream and must finish bit-identical to the unkilled oracle.
// The CI distributed-gate fails the build if identical_results or
// all_live is false, or if no replacement actually happened.
type FailoverReport struct {
	Dataset string  `json:"dataset"`
	Nodes   int     `json:"nodes"`
	Edges   int     `json:"edges"`
	MinSupp int     `json:"min_supp"`
	MinNhp  float64 `json:"min_nhp"`
	K       int     `json:"k"`
	// Workers is the primary daemon count, Standbys the spare daemon
	// count, Shards the (multiplexed) shard-slot layout.
	Workers  int `json:"workers"`
	Standbys int `json:"standbys"`
	Shards   int `json:"shards"`
	// Batches streamed; the victim daemon dies after KillAfterBatch of
	// them have been acknowledged. CheckpointInterval is the supervisor's
	// checkpoint cadence (acked batches between worker-state snapshots),
	// so recovery replays at most that many batches per replacement.
	Batches            int    `json:"batches"`
	KillAfterBatch     int    `json:"kill_after_batch"`
	CheckpointInterval int    `json:"checkpoint_interval"`
	KilledAddr         string `json:"killed_addr"`
	// BaselineBatchSeconds is the mean pre-kill batch wall clock;
	// RecoverySeconds is the first post-kill batch (detection + capped
	// dial backoff + rebuild + replay + the batch itself).
	BaselineBatchSeconds float64 `json:"baseline_batch_seconds"`
	RecoverySeconds      float64 `json:"recovery_seconds"`
	// Replacements/Retries/ReplayedBatches aggregate the coordinator's
	// per-shard failover counters; Fleet carries them per shard.
	// MaxReplayedBatches is the worst single shard's replay count — the
	// number the checkpoint interval must bound.
	Replacements       int64                `json:"replacements"`
	Retries            int64                `json:"retries"`
	ReplayedBatches    int64                `json:"replayed_batches"`
	MaxReplayedBatches int64                `json:"max_replayed_batches"`
	Fleet              []FailoverWorkerStat `json:"fleet"`
	// RecoveryCurve re-runs the drill at growing stream lengths (in-process
	// fleets only); ReplayBounded is true when every replacement — main run
	// and curve — replayed at most CheckpointInterval batches, i.e. recovery
	// cost is a function of the interval, not of how long the stream ran.
	RecoveryCurve []RecoveryPoint `json:"recovery_curve,omitempty"`
	ReplayBounded bool            `json:"replay_bounded"`
	// AllLive: every shard ended on a live worker. Identical: every
	// post-batch top-k (before AND after the kill) matched a fresh
	// single-store mine of the same graph — the unkilled oracle.
	AllLive   bool `json:"all_live"`
	Identical bool `json:"identical_results"`
}

// killableDaemon is an in-process shardd stand-in whose death can be forced
// mid-session: Kill closes the listener and every accepted connection, so
// the coordinator sees the same transport errors a crashed daemon produces.
type killableDaemon struct {
	addr string
	l    net.Listener

	mu    sync.Mutex
	conns []net.Conn
}

// Accept implements net.Listener, recording each session connection so Kill
// can sever it later.
func (kd *killableDaemon) Accept() (net.Conn, error) {
	c, err := kd.l.Accept()
	if err != nil {
		return nil, err
	}
	kd.mu.Lock()
	kd.conns = append(kd.conns, c)
	kd.mu.Unlock()
	return c, nil
}

func (kd *killableDaemon) Close() error   { return kd.l.Close() }
func (kd *killableDaemon) Addr() net.Addr { return kd.l.Addr() }

// Kill simulates a daemon crash: no new sessions, and the in-flight session
// drops mid-protocol.
func (kd *killableDaemon) Kill() {
	kd.l.Close()
	kd.mu.Lock()
	for _, c := range kd.conns {
		c.Close()
	}
	kd.conns = nil
	kd.mu.Unlock()
}

// startKillableDaemon serves the shard protocol with capacity slots on a
// fresh loopback port.
func startKillableDaemon(capacity int) (*killableDaemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	kd := &killableDaemon{addr: l.Addr().String(), l: l}
	go rpc.ServeShards(kd, capacity, nil) //nolint:errcheck // killed below
	return kd, nil
}

// Failover streams ingest batches through a remote sharded incremental
// engine whose worker fleet loses one multiplexed daemon mid-run: the
// coordinator must classify the loss, rebuild the dead shards on the
// standby daemon from their specs, replay their routed-batch logs, and keep
// every maintained top-k identical to a fresh single-store mine — the
// exactness contract of DESIGN.md §9. By default the fleet is three
// in-process loopback daemons (two primaries multiplexing two shard slots
// each, one standby); cfg.FailoverWorkers/FailoverStandby swap in external
// shardd processes, with cfg.FailoverKillPid naming the victim process to
// SIGKILL instead of the in-process crash.
func Failover(w io.Writer, cfg Config) error {
	// A smaller graph than the throughput experiments: the work here is the
	// kill/replay choreography, not mining scale.
	small := cfg
	small.PokecNodes = cfg.PokecNodes / 2
	if small.PokecNodes < 200 {
		small.PokecNodes = cfg.PokecNodes
	}
	g := small.pokec()
	schema := g.Schema()
	opt := core.Options{
		MinSupp: cfg.MinSupp, MinScore: cfg.MinNhp, K: cfg.K,
		DynamicFloor: true, ExactGenerality: true,
	}

	// Resolve the fleet: external shardd processes when configured, else
	// in-process killable daemons (capacity 2 each: shards 0,2 on the
	// victim, 1,3 on the survivor, replacements on the standby).
	var (
		addrs, standbys []string
		kill            func() error
		killedAddr      string
	)
	if cfg.FailoverWorkers != "" {
		addrs = splitAddrs(cfg.FailoverWorkers)
		standbys = splitAddrs(cfg.FailoverStandby)
		if len(addrs) == 0 || len(standbys) == 0 {
			return fmt.Errorf("bench: failover needs -failover-workers and -failover-standby address lists")
		}
		if cfg.FailoverKillPid <= 0 {
			return fmt.Errorf("bench: external failover needs -failover-kill-pid (the victim shardd's pid)")
		}
		killedAddr = addrs[0]
		kill = func() error {
			p, err := os.FindProcess(cfg.FailoverKillPid)
			if err != nil {
				return err
			}
			return p.Kill()
		}
	} else {
		daemons := make([]*killableDaemon, 3)
		for i := range daemons {
			kd, err := startKillableDaemon(2)
			if err != nil {
				return err
			}
			daemons[i] = kd
			defer kd.Kill()
		}
		addrs = []string{daemons[0].addr, daemons[1].addr}
		standbys = []string{daemons[2].addr}
		killedAddr = daemons[0].addr
		kill = func() error { daemons[0].Kill(); return nil }
	}
	shards := 2 * len(addrs)

	rep := FailoverReport{
		Dataset: "pokec-like", Nodes: g.NumNodes(), Edges: g.NumEdges(),
		MinSupp: cfg.MinSupp, MinNhp: cfg.MinNhp, K: cfg.K,
		Workers: len(addrs), Standbys: len(standbys), Shards: shards,
		KillAfterBatch: 3, CheckpointInterval: 3, KilledAddr: killedAddr,
		ReplayBounded: true, Identical: true,
	}
	fmt.Fprintf(w, "== Failover: kill a multiplexed worker mid-stream, restore from checkpoint on the standby ==  |V|=%d |E|=%d minSupp=%d minNhp=%0.0f%% k=%d\n",
		rep.Nodes, rep.Edges, rep.MinSupp, 100*rep.MinNhp, rep.K)
	fmt.Fprintf(w, "  fleet: %d shards over %d workers (+%d standby), checkpoint every %d batches, victim %s after batch %d\n",
		shards, len(addrs), len(standbys), rep.CheckpointInterval, killedAddr, rep.KillAfterBatch)

	// The curve below needs the pre-stream graph; Apply mutates g in place.
	curveBase := copyGraph(g)

	fleet := rpc.NewFleet(addrs, rpc.FleetOptions{Standbys: standbys})
	defer fleet.Close()
	inc, err := core.NewIncrementalShardedFrom(g, opt,
		core.ShardOptions{Shards: shards, CheckpointInterval: rep.CheckpointInterval}, fleet)
	if err != nil {
		return err
	}
	defer inc.Close()

	r := rand.New(rand.NewSource(cfg.Seed + 43))
	const nBatches, batchSize = 6, 150
	rep.Batches = nBatches
	var preKill float64
	for b := 0; b < nBatches; b++ {
		if b == rep.KillAfterBatch {
			if err := kill(); err != nil {
				return fmt.Errorf("bench: killing the victim worker: %w", err)
			}
		}
		edges := make([]core.EdgeInsert, batchSize)
		for i := range edges {
			e := core.EdgeInsert{Src: r.Intn(g.NumNodes()), Dst: r.Intn(g.NumNodes())}
			for _, attr := range schema.Edge {
				e.Vals = append(e.Vals, graph.Value(1+r.Intn(attr.Domain)))
			}
			edges[i] = e
		}
		start := time.Now()
		res, _, err := inc.ApplyBatch(core.Batch{Ins: edges})
		secs := time.Since(start).Seconds()
		if err != nil {
			return fmt.Errorf("bench: batch %d (kill after %d): %w", b, rep.KillAfterBatch, err)
		}
		switch {
		case b < rep.KillAfterBatch:
			preKill += secs
		case b == rep.KillAfterBatch:
			rep.RecoverySeconds = secs
		}
		// The unkilled oracle: a fresh single-store mine of the exact graph
		// the maintained top-k claims to describe.
		ref, err := core.Mine(g, inc.Options())
		if err != nil {
			return err
		}
		same := sameTop(res.TopK, ref.TopK)
		rep.Identical = rep.Identical && same
		fmt.Fprintf(w, "  batch %d%s: %7.4fs, identical to unkilled oracle: %v\n",
			b, map[bool]string{true: " (worker killed)", false: ""}[b == rep.KillAfterBatch], secs, same)
	}
	if rep.KillAfterBatch > 0 {
		rep.BaselineBatchSeconds = preKill / float64(rep.KillAfterBatch)
	}

	rep.AllLive = true
	for _, h := range inc.FleetHealth() {
		rep.Replacements += h.Replacements
		rep.Retries += h.Retries
		rep.ReplayedBatches += h.ReplayedBatches
		if h.ReplayedBatches > rep.MaxReplayedBatches {
			rep.MaxReplayedBatches = h.ReplayedBatches
		}
		if h.ReplayedBatches > h.Replacements*int64(rep.CheckpointInterval) {
			rep.ReplayBounded = false
		}
		rep.AllLive = rep.AllLive && h.Live
		rep.Fleet = append(rep.Fleet, FailoverWorkerStat{
			Shard: h.Shard, Addr: h.Addr, Live: h.Live,
			Retries: h.Retries, Replacements: h.Replacements,
			ReplayedBatches: h.ReplayedBatches,
			CheckpointEpoch: h.CheckpointEpoch, LogSuffixLen: h.LogSuffixLen,
		})
	}

	fmt.Fprintf(w, "  recovery: %.4fs (baseline batch %.4fs); %d replacements, %d re-issued ops, %d batches replayed (worst shard %d, interval %d)\n",
		rep.RecoverySeconds, rep.BaselineBatchSeconds, rep.Replacements, rep.Retries,
		rep.ReplayedBatches, rep.MaxReplayedBatches, rep.CheckpointInterval)
	switch {
	case rep.Identical && rep.AllLive && rep.Replacements > 0:
		fmt.Fprintln(w, "  shape: worker loss absorbed — every post-kill top-k ≡ the unkilled oracle ✓")
	case rep.Replacements == 0:
		fmt.Fprintln(w, "  shape: WARNING — the kill triggered no replacement (victim never consulted?)")
	default:
		fmt.Fprintln(w, "  shape: WARNING — the run diverged from the unkilled oracle after the kill")
	}

	// Recovery-latency-vs-stream-length curve (in-process fleets only): the
	// same drill after ever-longer streams. Pre-checkpoint, replay — and so
	// recovery latency — grew linearly with the acknowledged stream; with a
	// checkpoint every CheckpointInterval batches the replayed-batch count
	// must stay flat however long the stream ran first.
	if cfg.FailoverWorkers == "" {
		fmt.Fprintf(w, "  recovery vs stream length (checkpoint interval %d):\n", rep.CheckpointInterval)
		for _, streamLen := range []int{4, 8, 12} {
			pt, err := recoveryAtLength(copyGraph(curveBase), opt, shards,
				rep.CheckpointInterval, streamLen, cfg.Seed+int64(100*streamLen))
			if err != nil {
				return fmt.Errorf("bench: recovery curve at %d batches: %w", streamLen, err)
			}
			if pt.ReplayedBatches > int64(rep.CheckpointInterval) {
				rep.ReplayBounded = false
			}
			rep.RecoveryCurve = append(rep.RecoveryCurve, pt)
			fmt.Fprintf(w, "    %2d batches streamed: worst shard replayed %d, recovery %.4fs\n",
				pt.StreamBatches, pt.ReplayedBatches, pt.RecoverySeconds)
		}
		if rep.ReplayBounded {
			fmt.Fprintln(w, "  shape: replay bounded by the checkpoint interval at every stream length — recovery cost is flat ✓")
		} else {
			fmt.Fprintln(w, "  shape: WARNING — some replacement replayed more than the checkpoint interval")
		}
	}

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_failover.json")
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "  wrote %s\n", path)
	}
	return nil
}

// copyGraph returns an independent copy of g's live edges and node values,
// so a curve run's Apply stream cannot mutate another run's graph.
func copyGraph(g *graph.Graph) *graph.Graph {
	out := graph.MustNew(g.Schema(), g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		vals := append([]graph.Value(nil), g.NodeValues(v)...)
		if err := out.SetNodeValues(v, vals...); err != nil {
			panic(err)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		if !g.EdgeAlive(e) {
			continue
		}
		if _, err := out.AddEdge(g.Src(e), g.Dst(e), g.EdgeValues(e)...); err != nil {
			panic(err)
		}
	}
	return out
}

// recoveryAtLength runs one recovery-curve point: a fresh in-process fleet
// (two primaries, one standby) streams streamLen batches with the given
// checkpoint interval, the victim daemon dies right before the final batch,
// and that batch's wall clock — detection + restore-from-checkpoint +
// bounded replay + the batch itself — is the recovery latency. The reported
// replay count is the worst single shard's.
func recoveryAtLength(g *graph.Graph, opt core.Options, shards, interval, streamLen int, seed int64) (RecoveryPoint, error) {
	pt := RecoveryPoint{StreamBatches: streamLen}
	daemons := make([]*killableDaemon, 3)
	for i := range daemons {
		kd, err := startKillableDaemon(2)
		if err != nil {
			return pt, err
		}
		daemons[i] = kd
		defer kd.Kill()
	}
	fleet := rpc.NewFleet([]string{daemons[0].addr, daemons[1].addr},
		rpc.FleetOptions{Standbys: []string{daemons[2].addr}})
	defer fleet.Close()
	inc, err := core.NewIncrementalShardedFrom(g, opt,
		core.ShardOptions{Shards: shards, CheckpointInterval: interval}, fleet)
	if err != nil {
		return pt, err
	}
	defer inc.Close()

	schema := g.Schema()
	r := rand.New(rand.NewSource(seed))
	const batchSize = 150
	for b := 0; b < streamLen; b++ {
		if b == streamLen-1 {
			daemons[0].Kill()
		}
		edges := make([]core.EdgeInsert, batchSize)
		for i := range edges {
			e := core.EdgeInsert{Src: r.Intn(g.NumNodes()), Dst: r.Intn(g.NumNodes())}
			for _, attr := range schema.Edge {
				e.Vals = append(e.Vals, graph.Value(1+r.Intn(attr.Domain)))
			}
			edges[i] = e
		}
		start := time.Now()
		if _, _, err := inc.ApplyBatch(core.Batch{Ins: edges}); err != nil {
			return pt, fmt.Errorf("batch %d of %d: %w", b, streamLen, err)
		}
		if b == streamLen-1 {
			pt.RecoverySeconds = time.Since(start).Seconds()
		}
	}
	for _, h := range inc.FleetHealth() {
		if h.ReplayedBatches > pt.ReplayedBatches {
			pt.ReplayedBatches = h.ReplayedBatches
		}
	}
	return pt, nil
}

// splitAddrs parses a comma-separated address list, dropping empties.
func splitAddrs(v string) []string {
	var out []string
	for _, a := range strings.Split(v, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
