// Package apiv1 declares the versioned JSON wire types of grminerd's /v1
// HTTP API, shared by the daemon's handlers and the grminer CLI's -json
// output so both speak the same schema.
//
// Every response/request struct carries a "grlint:api vN" marker, mirroring
// the gob wire structs' "grlint:wire vN": the golden api_schema.json
// snapshot next to this package pins each struct's exported fields AND json
// tags, and TestAPISchemaGolden fails when the response shape drifts
// without a version bump. Bump the struct's marker (and the daemon's
// /v<N>/ route prefix when the change is breaking), then regenerate with
//
//	go test ./internal/serve/apiv1 -run TestAPISchemaGolden -update-api
package apiv1

import (
	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
)

// Version is the API generation every route in this package's schema
// belongs to; it is the "/v1" in the daemon's URL space.
const Version = 1

// Error is the uniform non-2xx response body.
//
// grlint:api v1
type Error struct {
	// Error is a human-readable description of what was wrong.
	Error string `json:"error"`
	// Code echoes the HTTP status code.
	Code int `json:"code"`
}

// Rule is one ranked mined rule.
//
// grlint:api v1
type Rule struct {
	// Rank is the 1-based position in the current top-k; GET
	// /v1/rules/{rank} addresses the rule by it.
	Rank int `json:"rank"`
	// GR is the rule in the textual form ParseGR accepts, e.g.
	// "(SEX:F, EDU:Grad) -> (SEX:M)".
	GR string `json:"gr"`
	// Score is the rule's value under the engine's ranking metric.
	Score float64 `json:"score"`
	// Supp is the absolute support |L -w-> R|.
	Supp int `json:"supp"`
	// Conf is the rule's plain confidence.
	Conf float64 `json:"conf"`
}

// TopKResponse is GET /v1/topk: the engine's current ranked rules plus the
// snapshot they came from.
//
// grlint:api v1
type TopKResponse struct {
	// Epoch identifies the published snapshot; it increases by one per
	// applied ingest batch.
	Epoch uint64 `json:"epoch"`
	// TotalEdges is the live edge count the snapshot was mined over.
	TotalEdges int `json:"total_edges"`
	// Metric names the ranking metric ("nhp", "conf", ...).
	Metric string `json:"metric"`
	// K is the configured top-k bound.
	K int `json:"k"`
	// Rules is the ranked list, best first, at most K entries.
	Rules []Rule `json:"rules"`
}

// RuleCounts carries the absolute supports a rule's metrics derive from
// (metrics.Counts over the wire).
//
// grlint:api v1
type RuleCounts struct {
	// LWR is |matches of L -w-> R|.
	LWR int `json:"lwr"`
	// LW is |matches of L -w-> *|.
	LW int `json:"lw"`
	// Hom is the homophily-effect count the nhp denominator excludes (0
	// unless the metric reads it, like R).
	Hom int `json:"hom"`
	// R is |nodes matching R| (0 unless the metric needs it).
	R int `json:"r"`
	// E is the live edge total at evaluation time.
	E int `json:"e"`
}

// RuleResponse is GET /v1/rules/{rank}: one rule plus its explain counts.
//
// grlint:api v1
type RuleResponse struct {
	Rule
	// Epoch identifies the snapshot the rule was read from.
	Epoch uint64 `json:"epoch"`
	// Counts are the supports behind the scores.
	Counts RuleCounts `json:"counts"`
	// CountsSource is "pool" when the counts came from the incremental
	// engine's exactly-maintained candidate pool, "scan" when they were
	// recomputed by a full graph scan.
	CountsSource string `json:"counts_source"`
	// Nhp is the rule's non-homophily preference (0 when undefined).
	Nhp float64 `json:"nhp"`
	// Trivial reports whether the rule is a pure homophily bond.
	Trivial bool `json:"trivial"`
}

// RecommendRequest is POST /v1/recommend. Exactly one of Node/RHS selects
// the query: Node asks "what should we suggest to this node?" (per-node
// suggestions), RHS asks "who should we target with this profile?" (a
// campaign over all nodes).
//
// grlint:api v1
type RecommendRequest struct {
	// Node is the 0-based node id to suggest for.
	Node *int `json:"node,omitempty"`
	// RHS is a campaign target descriptor, e.g. "(PRODUCT:Bonds)".
	RHS string `json:"rhs,omitempty"`
	// TopN bounds the returned list (0 = all).
	TopN int `json:"top_n,omitempty"`
}

// Suggestion is one recommended target profile for a node.
//
// grlint:api v1
type Suggestion struct {
	// RHS is the recommended descriptor.
	RHS string `json:"rhs"`
	// Score aggregates rule-score-weighted evidence.
	Score float64 `json:"score"`
	// Evidence counts the supporting in-edges.
	Evidence int `json:"evidence"`
	// Rules lists the mined rules that contributed, in textual form.
	Rules []string `json:"rules"`
}

// Prospect is one (node, score) campaign target.
//
// grlint:api v1
type Prospect struct {
	// Node is the prospect's 0-based node id.
	Node int `json:"node"`
	// Score aggregates rule-score-weighted evidence.
	Score float64 `json:"score"`
	// Evidence counts the supporting in-edges.
	Evidence int `json:"evidence"`
}

// RecommendResponse is POST /v1/recommend's result: Suggestions for a Node
// query, Prospects for an RHS campaign.
//
// grlint:api v1
type RecommendResponse struct {
	// Epoch identifies the snapshot whose rules drove the scoring.
	Epoch uint64 `json:"epoch"`
	// Rules is how many non-trivial mined rules were applied.
	Rules int `json:"rules"`
	// Suggestions answers a Node query (nil otherwise).
	Suggestions []Suggestion `json:"suggestions,omitempty"`
	// Prospects answers an RHS campaign (nil otherwise).
	Prospects []Prospect `json:"prospects,omitempty"`
}

// PropagateRequest is POST /v1/propagate: run GR-influence class
// propagation over the current graph for one node attribute.
//
// grlint:api v1
type PropagateRequest struct {
	// Attr is the class node attribute index.
	Attr int `json:"attr"`
	// FromRules derives the influence matrix from the currently mined
	// rules instead of fresh whole-graph queries.
	FromRules bool `json:"from_rules,omitempty"`
	// Epsilon is the LinBP damping factor (default 0.05).
	Epsilon float64 `json:"epsilon,omitempty"`
	// MaxIter bounds the sweeps (default 100, at most 1000; a larger or
	// negative value is refused with 400).
	MaxIter int `json:"max_iter,omitempty"`
	// Tol is the per-node L1 convergence threshold (default 1e-6; a
	// negative value, which no sweep can meet, is refused with 400).
	Tol float64 `json:"tol,omitempty"`
	// Nodes restricts the returned beliefs to these node ids (the run
	// always covers the whole graph); nil returns every node.
	Nodes []int `json:"nodes,omitempty"`
}

// NodeBeliefs is one node's propagated class beliefs.
//
// grlint:api v1
type NodeBeliefs struct {
	// Node is the 0-based node id.
	Node int `json:"node"`
	// Beliefs is the residual belief vector over the attribute's classes.
	Beliefs []float64 `json:"beliefs"`
}

// PropagateResponse is POST /v1/propagate's result.
//
// grlint:api v1
type PropagateResponse struct {
	// Epoch identifies the snapshot the run was consistent with.
	Epoch uint64 `json:"epoch"`
	// Iterations is the number of sweeps performed.
	Iterations int `json:"iterations"`
	// Converged reports whether Tol was met before MaxIter.
	Converged bool `json:"converged"`
	// Classes is the attribute's domain size (the belief vector length).
	Classes int `json:"classes"`
	// Nodes carries the requested nodes' beliefs.
	Nodes []NodeBeliefs `json:"nodes"`
}

// IngestEdge is one edge in an ingest batch: an insertion carries the new
// edge's attributes; a deletion retracts one live edge matching src, dst
// and vals exactly.
//
// grlint:api v1
type IngestEdge struct {
	// Src is the source node id.
	Src int `json:"src"`
	// Dst is the destination node id.
	Dst int `json:"dst"`
	// Vals are the edge attribute values, schema order (0 = null).
	Vals []int `json:"vals,omitempty"`
}

// IngestRequest is POST /v1/ingest: one atomic batch of insertions and
// retractions. Malformed input anywhere in the batch — a schema-rejected
// insert or a retraction matching no live edge — rejects the whole batch
// and the engine state is untouched.
//
// grlint:api v1
type IngestRequest struct {
	// Ins are the edge insertions.
	Ins []IngestEdge `json:"ins,omitempty"`
	// Del are the edge retractions.
	Del []IngestEdge `json:"del,omitempty"`
}

// IngestResponse is POST /v1/ingest's result after the batch applied.
//
// grlint:api v1
type IngestResponse struct {
	// Epoch is the snapshot the batch published.
	Epoch uint64 `json:"epoch"`
	// Edges / Deletes echo the applied batch size.
	Edges   int `json:"edges"`
	Deletes int `json:"deletes"`
	// Changed counts top-k entries that are new or re-scored vs the
	// previous snapshot.
	Changed int `json:"changed"`
	// TotalEdges is the live edge count after the batch.
	TotalEdges int `json:"total_edges"`
}

// Event is one rule-drift event on the GET /v1/events SSE stream, emitted
// after every applied ingest batch.
//
// grlint:api v1
type Event struct {
	// Epoch is the snapshot the batch published.
	Epoch uint64 `json:"epoch"`
	// Changed counts top-k entries new or re-scored by the batch.
	Changed int `json:"changed"`
	// TotalEdges is the live edge count after the batch.
	TotalEdges int `json:"total_edges"`
	// Edges / Deletes echo the applied batch size.
	Edges   int `json:"edges"`
	Deletes int `json:"deletes"`
}

// WorkerStatus is one shard worker's failover record in GET /v1/status
// (core.WorkerHealth over the wire).
//
// grlint:api v3
type WorkerStatus struct {
	// Shard is the shard index; Addr names the shardd daemon hosting it
	// (absent for an in-process worker).
	Shard int    `json:"shard"`
	Addr  string `json:"addr,omitempty"`
	// Live is false only when the shard is down with no replacement — the
	// engine is broken and ingests will fail. Recovering is true while a
	// replacement is being rebuilt (the shard is briefly neither).
	Live       bool `json:"live"`
	Recovering bool `json:"recovering,omitempty"`
	// Retries counts operations re-issued after a worker loss,
	// Replacements successful worker rebuilds, and ReplayedBatches the
	// routed batches replayed into replacements.
	Retries         int64 `json:"retries"`
	Replacements    int64 `json:"replacements"`
	ReplayedBatches int64 `json:"replayed_batches"`
	// CheckpointEpoch counts the checkpoints taken of this shard;
	// LogSuffixLen is the replay-log suffix retained past the newest
	// checkpoint — a healthy checkpointing shard keeps it hovering below
	// the checkpoint interval, bounding recovery replay.
	// CheckpointFailures counts failed checkpoint attempts; each leaves the
	// replay log untruncated, so a rising value explains a LogSuffixLen
	// past the interval.
	CheckpointEpoch    int64 `json:"checkpoint_epoch"`
	LogSuffixLen       int   `json:"log_suffix_len"`
	CheckpointFailures int64 `json:"checkpoint_failures"`
	// LastError is the most recent worker-loss cause (absent if none).
	LastError string `json:"last_error,omitempty"`
}

// StatusResponse is GET /v1/status: the daemon's identity, lifetime ingest
// totals, and the worker fleet's health.
//
// grlint:api v2
type StatusResponse struct {
	// APIVersion is the schema generation (this package's Version).
	APIVersion int `json:"api_version"`
	// Epoch is the current snapshot.
	Epoch uint64 `json:"epoch"`
	// TotalEdges is the current live edge count.
	TotalEdges int `json:"total_edges"`
	// Metric / MinSupp / MinScore / K / DynamicFloor echo the engine's
	// effective mining options.
	Metric       string  `json:"metric"`
	MinSupp      int     `json:"min_supp"`
	MinScore     float64 `json:"min_score"`
	K            int     `json:"k"`
	DynamicFloor bool    `json:"dynamic_floor"`
	// Batches / Edges / Deletes are lifetime ingest totals.
	Batches int `json:"batches"`
	Edges   int `json:"edges"`
	Deletes int `json:"deletes"`
	// Fleet is the per-shard worker health of a sharded engine, as of the
	// current snapshot (absent for single-store engines).
	Fleet []WorkerStatus `json:"fleet,omitempty"`
	// DroppedEvents counts SSE drift events dropped (lifetime) because a
	// subscriber's buffer was full — a rising value means a slow /v1/events
	// consumer is losing drift notifications.
	DroppedEvents int64 `json:"dropped_events"`
}

// WorkerStatusFrom renders one core.WorkerHealth record over the wire.
func WorkerStatusFrom(h core.WorkerHealth) WorkerStatus {
	return WorkerStatus{
		Shard:              h.Shard,
		Addr:               h.Addr,
		Live:               h.Live,
		Recovering:         h.Recovering,
		Retries:            h.Retries,
		Replacements:       h.Replacements,
		ReplayedBatches:    h.ReplayedBatches,
		CheckpointEpoch:    h.CheckpointEpoch,
		LogSuffixLen:       h.LogSuffixLen,
		CheckpointFailures: h.CheckpointFailures,
		LastError:          h.LastError,
	}
}

// MetricName names opt's ranking metric as the API reports it.
func MetricName(opt core.Options) string {
	if opt.Metric.Name == "" {
		return metrics.NhpMetric.Name
	}
	return opt.Metric.Name
}

// RuleFromScored renders one ranked rule (rank is 1-based).
func RuleFromScored(rank int, s gr.Scored, schema *graph.Schema) Rule {
	return Rule{
		Rank:  rank,
		GR:    s.GR.Format(schema),
		Score: s.Score,
		Supp:  s.Supp,
		Conf:  s.Conf,
	}
}

// TopKFromResult renders a mining result as the versioned top-k response;
// epoch 0 means "no snapshot" (one-shot CLI output).
func TopKFromResult(res *core.Result, schema *graph.Schema, epoch uint64) TopKResponse {
	out := TopKResponse{
		Epoch:      epoch,
		TotalEdges: res.TotalEdges,
		Metric:     MetricName(res.Options),
		K:          res.Options.K,
		Rules:      make([]Rule, 0, len(res.TopK)),
	}
	for i, s := range res.TopK {
		out.Rules = append(out.Rules, RuleFromScored(i+1, s, schema))
	}
	return out
}

// CountsFrom renders metrics.Counts over the wire.
func CountsFrom(c metrics.Counts) RuleCounts {
	return RuleCounts{LWR: c.LWR, LW: c.LW, Hom: c.Hom, R: c.R, E: c.E}
}
