// Package cli holds the flag helpers the grminer and grminerd commands
// share: the -workers and address-list parsers, the -checkpoint-interval
// mapping and the input loader behind -data and the file flags.
package cli

import (
	"fmt"
	"strconv"
	"strings"

	"grminer"
)

// ParseWorkers splits grminer's overloaded -workers value: a plain integer
// is the parallel miner's worker count, anything with a ':' is a comma-
// separated shardd address list for remote mining.
func ParseWorkers(v string) (parallelism int, remote []string, err error) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, nil, nil
	}
	if n, errInt := strconv.Atoi(v); errInt == nil {
		if n < 0 {
			return 0, nil, fmt.Errorf("-workers %d: negative worker count", n)
		}
		return n, nil, nil
	}
	for _, a := range strings.Split(v, ",") {
		if a = strings.TrimSpace(a); a != "" {
			remote = append(remote, a)
		}
	}
	if len(remote) == 0 {
		return 0, nil, fmt.Errorf("-workers %q: want a worker count or host:port addresses", v)
	}
	for _, a := range remote {
		if !strings.Contains(a, ":") {
			return 0, nil, fmt.Errorf("-workers address %q: want host:port", a)
		}
	}
	return 0, remote, nil
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
