// Package cli holds the flag helpers the grminer and grminerd commands
// share: the -workers and address-list parsers, the shard flag checks, the
// -checkpoint-interval mapping and the input loader behind -data and the
// file flags.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"grminer"
)

// ParseWorkers parses the -workers flag of grminer and grminerd: a
// comma-separated list of shardd addresses. A number is refused: mining
// width follows GOMAXPROCS, so there is no worker count to give.
func ParseWorkers(v string) ([]string, error) {
	if _, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
		return nil, fmt.Errorf("-workers %s: the flag takes shardd addresses (host:port,...); mining width follows GOMAXPROCS", strings.TrimSpace(v))
	}
	return ParseAddrList("-workers", v)
}

// ParseAddrList splits a comma-separated host:port list, validating each
// entry.
func ParseAddrList(flagName, v string) ([]string, error) {
	var addrs []string
	for _, a := range strings.Split(v, ",") {
		if a = strings.TrimSpace(a); a == "" {
			continue
		}
		if !strings.Contains(a, ":") {
			return nil, fmt.Errorf("%s address %q: want host:port", flagName, a)
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}

// CheckShardFlags refuses the shard flag combinations both commands reject
// before they load any input: -standby without remote shards, -shard-by
// given on fs without sharding (-shards N > 0 or -workers), and a negative
// -checkpoint-interval.
func CheckShardFlags(fs *flag.FlagSet, remote, standbys []string, shards, checkpointInterval int) error {
	shardBySet := false
	fs.Visit(func(f *flag.Flag) { shardBySet = shardBySet || f.Name == "shard-by" })
	switch {
	case len(standbys) > 0 && len(remote) == 0:
		return errors.New("-standby needs remote shards (-workers host:port,...)")
	case shardBySet && shards <= 0 && len(remote) == 0:
		return errors.New("-shard-by has no effect without -shards N (N > 0) or -workers")
	case checkpointInterval < 0:
		return errors.New("-checkpoint-interval must be >= 0 (0 disables checkpointing)")
	}
	return nil
}

// CheckpointInterval maps the -checkpoint-interval flag value onto
// ShardOptions.CheckpointInterval, where zero means "use the default" and
// disabling is spelled negative.
func CheckpointInterval(flagValue int) int {
	if flagValue == 0 {
		return -1
	}
	return flagValue
}

// LoadGraph returns the input network: a built-in dataset (toy, or the
// pokec and dblp generators sized by nodes, deg and seed), or the network
// read from a schema, node and edge file.
func LoadGraph(data, schemaF, nodesF, edgesF string, nodes int, deg float64, seed int64) (*grminer.Graph, error) {
	switch {
	case data == "toy":
		return grminer.ToyDating(), nil
	case data == "pokec":
		cfg := grminer.DefaultPokecConfig()
		cfg.Nodes = nodes
		cfg.AvgOutDegree = deg
		cfg.Seed = seed
		return grminer.Pokec(cfg), nil
	case data == "dblp":
		cfg := grminer.DefaultDBLPConfig()
		cfg.Seed = seed
		return grminer.DBLP(cfg), nil
	case data != "":
		return nil, fmt.Errorf("unknown dataset %q (want toy, pokec, or dblp)", data)
	case schemaF != "" && nodesF != "" && edgesF != "":
		return grminer.LoadFiles(schemaF, nodesF, edgesF)
	default:
		return nil, fmt.Errorf("need -data or all of -schema/-nodes-file/-edges-file (see -h)")
	}
}
