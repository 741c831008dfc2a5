// Package csort implements the linear counting-sort partitioner GRMiner uses
// to split edge partitions by one attribute (Section V: "A linear sorting
// method, Counting Sort, is adopted to sort and get the aggregate of each
// partition. It sorts in O(N) time without any key comparisons").
//
// The partitioner takes a pre-gathered key column, not a key function: the
// caller reads each row's value once into a dense []uint16, and both the
// histogram and the scatter then stream that column with no indirect calls.
// The histogram comes first, so groups a search would prune at once (below a
// minimum size, or the null value) are reported by size but never scattered;
// when no group survives, the scatter pass is skipped entirely.
//
// A Partitioner owns the counting buckets and resets only the buckets it
// touched, so partitioning a small slice by a large-domain attribute (for
// example Pokec's Region with |A| = 188) stays proportional to the slice.
package csort

import "fmt"

// Group is one non-empty value of the input: N ids have key Val. A group
// Partition scattered occupies out[Lo:Hi] (Hi-Lo == N); a group it did not
// scatter (smaller than the minimum size, or the skip value) has Lo == Hi.
// Groups are emitted in ascending Val order; absent values produce no group.
type Group struct {
	Val uint16
	N   int32
	Lo  int32
	Hi  int32
}

// Partitioner is a reusable counting-sort work area. It is not safe for
// concurrent use; create one per goroutine.
type Partitioner struct {
	counts []int32
	starts []int32
	groups []Group
}

// New returns a Partitioner able to handle keys in 0..maxDomain.
func New(maxDomain int) *Partitioner {
	return &Partitioner{
		counts: make([]int32, maxDomain+1),
		starts: make([]int32, maxDomain+1),
		groups: make([]Group, 0, maxDomain+1),
	}
}

// Partition counts keys, where keys[i] is the key of ids[i], and returns
// every non-empty group in ascending key order with its size. It then
// stably scatters into out only the ids of groups with at least minSize
// members whose key is not skip; those groups lie back to back from out[0],
// and the rest of out is left as it was. out must have the same length as
// ids and keys and not alias ids. Every key must lie within the
// Partitioner's domain; Partition panics otherwise (an out-of-domain key
// indicates data corruption upstream, since the graph layer validates every
// stored value).
//
// The returned group slice is owned by the Partitioner and is invalidated by
// the next Partition call.
func (p *Partitioner) Partition(ids []int32, keys []uint16, minSize int, skip uint16, out []int32) []Group {
	if len(keys) != len(ids) || len(out) != len(ids) {
		panic(fmt.Sprintf("csort: ids length %d, keys length %d, out length %d differ", len(ids), len(keys), len(out)))
	}
	p.groups = p.groups[:0]
	// Count occurrences; track touched values through the groups list so the
	// reset below is O(distinct values), not O(domain).
	counts := p.counts
	for _, k := range keys {
		if int(k) >= len(counts) {
			panic(fmt.Sprintf("csort: key %d out of domain %d", k, len(counts)-1))
		}
		if counts[k] == 0 {
			p.groups = append(p.groups, Group{Val: k})
		}
		counts[k]++
	}
	// Groups were appended in first-seen order; order them by value with an
	// insertion sort (the group count is the number of *distinct* values,
	// which is small; this does not touch the O(N) id pass).
	for i := 1; i < len(p.groups); i++ {
		g := p.groups[i]
		j := i - 1
		for j >= 0 && p.groups[j].Val > g.Val {
			p.groups[j+1] = p.groups[j]
			j--
		}
		p.groups[j+1] = g
	}
	// Prefix sums over the surviving groups give each its slot range; a
	// negative start marks a value whose ids are not scattered. Reading a
	// count also resets its bucket.
	var off int32
	for i := range p.groups {
		g := &p.groups[i]
		g.N = counts[g.Val]
		counts[g.Val] = 0
		if int(g.N) < minSize || g.Val == skip {
			p.starts[g.Val] = -1
			continue
		}
		g.Lo, g.Hi = off, off+g.N
		p.starts[g.Val] = off
		off += g.N
	}
	if off == 0 {
		return p.groups
	}
	// Stable scatter of the surviving groups.
	starts := p.starts
	for i, k := range keys {
		if s := starts[k]; s >= 0 {
			out[s] = ids[i]
			starts[k] = s + 1
		}
	}
	return p.groups
}
