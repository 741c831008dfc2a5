// Package grminer is a from-scratch Go implementation of "Mining Social
// Ties Beyond Homophily" (Liang, Wang, Zhu; IEEE ICDE 2016): mining top-k
// group relationships (GRs) ranked by non-homophily preference (nhp), the
// conditional-probability metric that excludes the homophily effect from
// confidence and thereby surfaces the strong social ties that homophily
// does not explain.
//
// Open is the canonical entrypoint: one EngineConfig spans every engine
// variant — static or incremental, local, sharded, or remote over a fleet
// of shardd worker daemons (with standby failover). The essentials:
//
//	g := grminer.ToyDating() // or load / generate a network
//	e, err := grminer.Open(g, grminer.EngineConfig{
//	    Options: grminer.Options{
//	        MinSupp:  20,   // absolute support threshold
//	        MinScore: 0.5,  // minNhp
//	        K:        10,
//	        DynamicFloor: true, // the paper's GRMiner(k)
//	    },
//	})
//	if err != nil {
//	    log.Fatal(err)
//	}
//	defer e.Close()
//	res, err := e.Mine()
//	if err != nil {
//	    log.Fatal(err)
//	}
//	for _, s := range res.TopK {
//	    fmt.Printf("%s  nhp=%.1f%% supp=%d\n", s.GR.Format(g.Schema()), 100*s.Score, s.Supp)
//	}
//
// Setting Mode: ModeIncremental opens a long-lived engine whose ApplyBatch
// ingests mixed insert/delete batches; Shard and Workers select the sharded
// and remote topologies (see EngineConfig). Open (or OpenStore, over a
// pre-built store) is the only constructor and ApplyBatch the only ingest
// call.
//
// The package re-exports the building blocks (attributed graphs, GR
// descriptors, metrics, the compact three-array store, synthetic dataset
// generators, baselines, and the hypothesis workbench) so applications can
// compose them; the implementation lives under internal/.
package grminer

import (
	"grminer/internal/baseline"
	"grminer/internal/core"
	"grminer/internal/datagen"
	"grminer/internal/dataset"
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/hypothesis"
	"grminer/internal/metrics"
	"grminer/internal/propagate"
	"grminer/internal/recommend"
	"grminer/internal/store"
	"grminer/internal/topk"
)

// Re-exported model types. See the internal packages for full documentation.
type (
	// Graph is a directed multigraph with attributed nodes and edges.
	Graph = graph.Graph
	// Schema fixes the node and edge attribute sets of a network.
	Schema = graph.Schema
	// Attribute describes one node or edge attribute, including its
	// homophily designation.
	Attribute = graph.Attribute
	// Value is a single attribute value; 0 is null.
	Value = graph.Value
	// GR is a group relationship l -w-> r.
	GR = gr.GR
	// Descriptor is a set of (attribute : value) conditions.
	Descriptor = gr.Descriptor
	// Scored pairs a GR with its support, ranking score, and confidence.
	Scored = gr.Scored
	// Options configures a mining run (thresholds, top-k, metric).
	Options = core.Options
	// Result is a completed mining run: ranked GRs plus search statistics.
	Result = core.Result
	// Stats reports the work a mining run performed.
	Stats = core.Stats
	// Plan is the descriptor caps the size-aware planner selects from the
	// schema's width.
	Plan = core.Plan
	// Incremental maintains the top-k under edge insertions without full
	// re-mines (tracked candidate pool + scoped subtree re-mining).
	Incremental = core.Incremental
	// IncrementalSharded is Incremental over a sharded edge set: batches
	// are routed to the owning shard and the global top-k is re-merged.
	IncrementalSharded = core.IncrementalSharded
	// ShardOptions selects the layout of a sharded mine (shard count and
	// edge-routing strategy).
	ShardOptions = core.ShardOptions
	// ShardPlan describes one sharded run: layout, per-shard edge counts,
	// and the lowered per-shard offer threshold.
	ShardPlan = core.ShardPlan
	// ShardCoordinator owns one sharded run: the plan, the per-shard
	// workers, and the merge (Engine.Coordinator returns it).
	ShardCoordinator = core.ShardCoordinator
	// ShardStrategy names a deterministic edge-routing rule.
	ShardStrategy = graph.ShardStrategy
	// EdgeInsert is one edge insertion for ApplyBatch.
	EdgeInsert = core.EdgeInsert
	// EdgeDelete is one edge retraction for ApplyBatch: it removes one live
	// edge matching the endpoints and edge values exactly, resolved against
	// the graph as it stood before the batch.
	EdgeDelete = core.EdgeDelete
	// Batch is one mixed insert/delete change set for
	// Incremental.ApplyBatch / IncrementalSharded.ApplyBatch. Malformed
	// input anywhere in a batch — a schema-rejected insert or a retraction
	// matching no live edge — rejects the whole batch atomically.
	Batch = core.Batch
	// IncStats reports the work one incremental batch performed.
	IncStats = core.IncStats
	// WorkerHealth is one shard's failover record (liveness, retries,
	// replacements, replayed batches), reported by Engine.FleetHealth.
	WorkerHealth = core.WorkerHealth
	// Metric is a pluggable interestingness measure (Section VII).
	Metric = metrics.Metric
	// Counts carries the absolute supports metrics are computed from.
	Counts = metrics.Counts
	// Store is the compact LArray/EArray/RArray data model (Section IV-A).
	Store = store.Store
	// Workbench answers exact supp/conf/nhp queries for hypothesis
	// formulation (Remark 3).
	Workbench = hypothesis.Workbench
	// Report carries every measurement of one queried GR.
	Report = hypothesis.Report
	// BaselineOptions configures the BUC baselines BL1 and BL2.
	BaselineOptions = baseline.Options
	// BaselineResult is a completed baseline run.
	BaselineResult = baseline.Result
	// PokecConfig controls the synthetic Pokec-like generator.
	PokecConfig = datagen.PokecConfig
	// DBLPConfig controls the synthetic DBLP-like generator.
	DBLPConfig = datagen.DBLPConfig
)

// Null is the null attribute value; it never appears in a descriptor.
const Null = graph.Null

// DefaultCheckpointInterval is how many acknowledged ingest batches a shard
// supervisor logs between worker-state checkpoints when
// ShardOptions.CheckpointInterval is left zero.
const DefaultCheckpointInterval = core.DefaultCheckpointInterval

// NewSchema validates and returns a schema.
func NewSchema(node, edge []Attribute) (*Schema, error) { return graph.NewSchema(node, edge) }

// NewGraph creates a graph with the given node count and no edges.
func NewGraph(schema *Schema, numNodes int) (*Graph, error) { return graph.New(schema, numNodes) }

// LoadFiles reads a graph from schema/nodes/edges files (see internal/graph
// for the line formats).
func LoadFiles(schemaPath, nodesPath, edgesPath string) (*Graph, error) {
	return graph.LoadFiles(schemaPath, nodesPath, edgesPath)
}

// SaveFiles writes a graph's schema/nodes/edges files.
func SaveFiles(g *Graph, schemaPath, nodesPath, edgesPath string) error {
	return graph.SaveFiles(g, schemaPath, nodesPath, edgesPath)
}

// BuildStore precomputes the compact data model so repeated OpenStore
// engines skip the build.
func BuildStore(g *Graph) *Store { return store.Build(g) }

// TopKChanged counts entries of cur that are new or re-scored relative to
// prev — the churn one ingested batch caused.
func TopKChanged(prev, cur []Scored) int { return topk.ChangedFrom(prev, cur) }

// Shard-routing strategies for ShardOptions.Strategy.
const (
	// ShardBySource routes edges by a hash of the source node id.
	ShardBySource = graph.ShardBySource
	// ShardByRHS routes edges by a hash of the destination node's
	// attribute row.
	ShardByRHS = graph.ShardByRHS
)

// ParseShardStrategy maps a CLI spelling ("src", "rhs") to a strategy.
func ParseShardStrategy(s string) (ShardStrategy, error) { return graph.ParseShardStrategy(s) }

// ParseGR parses the textual GR form, e.g. "(SEX:F, EDU:Grad) -> (SEX:M)".
func ParseGR(s *Schema, text string) (GR, error) { return gr.ParseGR(s, text) }

// NewWorkbench returns a hypothesis workbench over g.
func NewWorkbench(g *Graph) *Workbench { return hypothesis.New(g) }

// EvalGR measures a GR exactly by a full scan.
func EvalGR(g *Graph, r GR) Counts { return metrics.Eval(g, r) }

// Builtin metrics (Section III-B and VII).
var (
	// NhpMetric is non-homophily preference, the paper's ranking metric.
	NhpMetric = metrics.NhpMetric
	// ConfMetric is standard confidence.
	ConfMetric = metrics.ConfMetric
	// LaplaceMetric, GainMetric, PSMetric, ConvictionMetric and LiftMetric
	// are the Section VII alternatives.
	LaplaceMetric    = metrics.LaplaceMetric
	GainMetric       = metrics.GainMetric
	PSMetric         = metrics.PSMetric
	ConvictionMetric = metrics.ConvictionMetric
	LiftMetric       = metrics.LiftMetric
)

// MetricByName looks up a builtin metric ("nhp", "conf", "laplace", "gain",
// "piatetsky-shapiro", "conviction", "lift").
func MetricByName(name string) (Metric, error) { return metrics.ByName(name) }

// AllMetrics lists every builtin metric.
func AllMetrics() []Metric { return metrics.All() }

// ToyDating returns the paper's Figure 1 toy dating network.
func ToyDating() *Graph { return dataset.ToyDating() }

// ToySchema returns the toy network's schema.
func ToySchema() *Schema { return dataset.ToySchema() }

// Pokec generates the synthetic Pokec-like social network (the stand-in for
// the SNAP soc-pokec dataset; see DESIGN.md §3).
func Pokec(cfg PokecConfig) *Graph { return datagen.Pokec(cfg) }

// DefaultPokecConfig returns a laptop-scale Pokec configuration.
func DefaultPokecConfig() PokecConfig { return datagen.DefaultPokecConfig() }

// DBLP generates the synthetic DBLP-like co-authorship network.
func DBLP(cfg DBLPConfig) *Graph { return datagen.DBLP(cfg) }

// DefaultDBLPConfig reproduces the paper's DBLP scale (28,702 authors,
// 66,832 directed edges).
func DefaultDBLPConfig() DBLPConfig { return datagen.DefaultDBLPConfig() }

// BL1 runs the single-table BUC baseline (Section VI-D).
func BL1(g *Graph, opt BaselineOptions) (*BaselineResult, error) { return baseline.BL1(g, opt) }

// BL2 runs the three-array BUC baseline.
func BL2(g *Graph, opt BaselineOptions) (*BaselineResult, error) { return baseline.BL2(g, opt) }

// ConfMiner mines top-k GRs ranked by plain confidence with trivial GRs
// admitted — the comparison column of the paper's Table II.
func ConfMiner(g *Graph, minSupp int, minConf float64, k int) (*Result, error) {
	return baseline.ConfMiner(g, minSupp, minConf, k)
}

// Application substrates (the uses Sections I-II of the paper motivate).
type (
	// PropagateConfig controls GR-driven class propagation.
	PropagateConfig = propagate.Config
	// PropagateResult holds propagated class beliefs.
	PropagateResult = propagate.Result
	// Recommender drives Example 3-style cross-sell recommendations from
	// mined GRs.
	Recommender = recommend.Recommender
	// Suggestion is one recommendation for a node.
	Suggestion = recommend.Suggestion
	// Prospect is one (node, score) campaign target.
	Prospect = recommend.Prospect
)

// InfluenceMatrix derives a class-compatibility matrix for one node
// attribute from the network (diagonal: confidence of the homophily bond;
// off-diagonal: nhp of the secondary bonds), for use with Propagate.
func InfluenceMatrix(g *Graph, attr int) ([][]float64, error) {
	return propagate.InfluenceMatrix(g, attr)
}

// Propagate runs GR-influence class propagation (Section II: "GRs can serve
// as the assumed influence matrix").
func Propagate(g *Graph, influence [][]float64, cfg PropagateConfig) (*PropagateResult, error) {
	return propagate.Run(g, influence, cfg)
}

// NewRecommender builds an Example 3-style recommender from mined GRs.
func NewRecommender(g *Graph, mined []Scored) *Recommender {
	return recommend.New(g, mined)
}
