// Package rpc puts the ShardWorker boundary of internal/core on the wire:
// a compact gob-over-TCP protocol connecting a mining coordinator to shardd
// worker daemons. A daemon multiplexes up to Shards (advertised in its
// HelloReply) worker slots behind one process; every post-handshake request
// is shard-addressed by slot.
//
// A session is one coordinator connection:
//
//	client → Hello{Magic, Version}
//	server → HelloReply{OK, Shards} or HelloReply{Err} (and the daemon
//	          exits non-zero — a version-mismatched peer is a deployment
//	          error, mirroring the atomic rejection -follow batch mode
//	          applies to malformed edges)
//	client → Request{Shard, Op: "build", Spec}   server → Reply{NumEdges}
//	client → Request{Shard, Op: "offer", Bound}  server → Reply{Offers, Stats}
//	          (a nil Bound seeds the worker's pool; each offer then carries
//	          its pool handle)
//	client → Request{Shard, Op: "counts", Query} server → Reply{Counts}
//	          (the GRs and their counts travel as flat columns)
//	client → Request{Shard, Op: "ingest", Edges, Deletes}
//	server → Reply{Ingest: NumEdges, pool deltas by handle with count
//	          columns, the batch's pool entrants by value, Stats}
//	client → Request{Shard, Op: "checkpoint"}    server → Reply{Checkpoint}
//	client → Request{Shard, Op: "restore", Spec, Checkpoint} server → Reply{NumEdges}
//	... more ops, interleaving slots freely ...
//	client closes the connection; the daemon discards all worker state and
//	accepts the next session.
//
// Every message is one gob value (gob frames are length-prefixed on the
// wire). All payload types are plain value structs from internal/core, so
// the protocol needs no gob type registration. Requests are strictly
// serialized per connection — the coordinator serializes across all slots
// of one daemon and is concurrent only across connections — which keeps
// the daemon a single-goroutine loop with no locking.
package rpc

import (
	"grminer/internal/core"
)

// Magic identifies the protocol; Version its revision. A peer advertising
// anything else is rejected during the handshake.
//
// Version history:
//
//	1: build/offer/counts/ingest with insert-only ingest batches.
//	2: ingest requests grew the Deletes slice (fully dynamic streams). A
//	   v1 daemon would silently drop a v2 coordinator's retractions — the
//	   handshake bump turns that silent divergence into a loud rejection
//	   on both sides.
//	3: multiplexed shards. HelloReply advertises the daemon's slot
//	   capacity and every Request is shard-addressed (Request.Shard picks
//	   the slot). A v2 daemon would route every slot's requests into one
//	   worker — the bump turns that silent state corruption into a loud
//	   handshake rejection.
//	4: checkpoint/restore. Workers serialize their full shard state into
//	   an opaque versioned blob (Reply.Checkpoint) and replacements are
//	   restored from one (Request.Checkpoint), so supervisors can truncate
//	   their replay logs to the post-checkpoint suffix. A v3 daemon would
//	   answer "unknown op" to every checkpoint request — recoverable, but
//	   a fleet silently falling back to unbounded full replay is exactly
//	   the latency cliff checkpointing exists to remove, so version skew
//	   is rejected at handshake like every other revision.
//	5: handle-addressed ingest replies. core.IngestReply v3 names each pool
//	   delta by the worker's pool handle, carries the counts in columns,
//	   and ships a GR by value only when it enters the pool; seeding
//	   offers tag each core.ShardCandidate (v2) with its handle. Across
//	   the skew, gob refuses a v4 daemon's Deltas []ShardCandidate as the
//	   wrong type for the v5 field, a transport error the failover path
//	   would read as worker loss and "recover" from by rebuilding on the
//	   same daemons, and a v4 seed offer would carry no handles at all —
//	   the bump turns both into one handshake rejection.
//	6: columnar round-2 counts. A counts request carries a CountQuery
//	   (descriptor lengths, attribute and value columns) in place of
//	   Request.GRs, and the reply a CountColumns in place of a
//	   []metrics.Counts. gob drops a field the receiver lacks, so across
//	   the skew a v5 daemon would read a v6 query as an empty one and
//	   answer it, and the v6 coordinator's decoder would then refuse the
//	   reply's []metrics.Counts as the wrong type for CountColumns — a
//	   transport error the failover path would read as worker loss, on
//	   every merge. The bump makes it one handshake rejection.
//
// Not every wire struct change needs a bump: core.WireOptions v3 dropped
// the NoPostingLists flag under Version 4, because gob skips a field the
// other side lacks in both directions and workers already ignored it
// (TestWireOptionsV2Compat). core.Stats v2 dropped OneRoundGapFill the
// same way: only the coordinator's merge ever set it, so no worker reply
// carried a non-zero value (TestStatsV1Compat); v3 added the static mine's
// phase times, which gob likewise zeroes or skips across the skew and no
// worker reply sets (TestStatsV2Compat). core.IngestReply v4 retyped
// Deltas from []intern.GRID to []int32 without one: gob matches a slice by
// its element kind, so either side decodes the other's replies, and past
// the one-time type descriptor both encode a reply to the same bytes
// (TestIngestReplyV3Compat).
const (
	Magic   = "grminer-shard"
	Version = 6
)

// Hello is the client's first message on a fresh connection.
//
// grlint:wire v1
type Hello struct {
	Magic   string
	Version int
}

// HelloReply acknowledges (or rejects) the handshake. On success Shards
// advertises the daemon's slot capacity: how many worker slots this one
// process multiplexes. A coordinator must not address Request.Shard at or
// beyond it.
//
// grlint:wire v2
type HelloReply struct {
	OK     bool
	Err    string
	Shards int
}

// Op names a request type.
const (
	OpBuild      = "build"
	OpOffer      = "offer"
	OpCounts     = "counts"
	OpIngest     = "ingest"
	OpCheckpoint = "checkpoint"
	OpRestore    = "restore"
)

// Request is one coordinator → worker message after the handshake. Shard
// addresses the daemon-side worker slot (0 ≤ Shard < HelloReply.Shards);
// Op selects which payload field is meaningful.
//
// grlint:wire v5
type Request struct {
	Shard   int
	Op      string
	Spec    *core.WorkerSpec
	Bound   *core.OfferBound
	Query   CountQuery
	Edges   []core.EdgeInsert
	Deletes []core.EdgeDelete
	// Checkpoint carries the state blob of a restore request. The blob is
	// opaque at this layer; its own version field is checked by core when
	// the worker installs it.
	Checkpoint []byte
}

// Reply is one worker → coordinator message. A non-empty Err reports an
// operation failure; the session stays open.
//
// grlint:wire v3
type Reply struct {
	Err      string
	NumEdges int
	Offers   []core.ShardCandidate
	Stats    core.Stats
	Counts   CountColumns
	Ingest   core.IngestReply
	// Checkpoint is the opaque state blob answering a checkpoint request.
	Checkpoint []byte
}

// CountQuery is a round-2 exact-count request in columns. Lens holds three
// entries per GR — |L|, |W|, |R| — and Attrs and Vals hold the conditions
// of every descriptor in that order, GR after GR. Its fields are
// gr.Columns', so the two convert into each other and share gr's codec.
//
// grlint:wire v1
type CountQuery struct {
	Lens  []uint8
	Attrs []uint16
	Vals  []uint16
}

// CountColumns answers a CountQuery: one entry per queried GR in each
// column. Hom is present only when the worker's metric reads it and R only
// when it reads R; E is the reply's NumEdges for every GR.
//
// grlint:wire v1
type CountColumns struct {
	LWR, LW, Hom, R []int32
}
