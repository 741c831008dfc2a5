// Package csort implements the linear counting-sort partitioner GRMiner uses
// to split edge partitions by one attribute (Section V: "A linear sorting
// method, Counting Sort, is adopted to sort and get the aggregate of each
// partition. It sorts in O(N) time without any key comparisons").
//
// The partitioner takes a pre-gathered key column, not a key function: the
// caller reads each row's value once into a dense []uint16, and both passes
// then stream that column with no indirect calls. The kernel is two calls:
// Count builds the histogram, which is every group's aggregate, and Scatter
// moves only the rows of the groups the caller gave a slot. A search settles
// most groups from their size alone (below a minimum size, the null value,
// a group it prunes), so those are reported by size but never moved; when
// the caller slots no group, it skips the scatter pass entirely. A caller
// that counts several attributes of one row set in a single pass hands each
// histogram to Groups instead of Count, and gathers a key column only for
// an attribute whose groups it scatters.
//
// A Partitioner owns the counting buckets and resets only the buckets it
// touched, so partitioning a small slice by a large-domain attribute (for
// example Pokec's Region with |A| = 188) stays proportional to the slice
// plus its largest key.
package csort

import "fmt"

// Group is one non-empty value of the input: N ids have key Val. A group
// that was scattered occupies out[Lo:Hi] (Hi-Lo == N); a group that was not
// (smaller than the minimum size, the skip value, or one the caller left
// without a slot) has Lo == Hi. Groups are emitted in ascending Val order;
// absent values produce no group.
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
	// rows is the length of the column the last Count read; Scatter checks
	// it is handed a column of the same length.
	rows int
}

// New returns a Partitioner able to handle keys in 0..maxDomain.
func New(maxDomain int) *Partitioner {
	return &Partitioner{
		counts: make([]int32, maxDomain+1),
		starts: make([]int32, maxDomain+1),
		groups: make([]Group, 0, maxDomain+1),
	}
}

// Count builds the histogram of keys and returns every non-empty group in
// ascending key order with its size and no slot (Lo == Hi == 0). Every key
// must lie within the Partitioner's domain; Count panics otherwise (an
// out-of-domain key indicates data corruption upstream, since the graph
// layer validates every stored value).
//
// The returned slice is owned by the Partitioner and is invalidated by the
// next Count. The caller gives a group a slot by setting its Lo and Hi
// (Hi-Lo == N) in that slice, then calls Scatter.
func (p *Partitioner) Count(keys []uint16) []Group {
	p.groups = p.groups[:0]
	p.rows = len(keys)
	counts := p.counts
	for i, k := range keys {
		if int(k) >= len(counts) {
			for _, k := range keys[:i] {
				counts[k] = 0
			}
			panic(fmt.Sprintf("csort: key %d out of domain %d", k, len(counts)-1))
		}
		counts[k]++
	}
	// Walking the buckets up from 0 until every key is accounted for yields
	// the groups in ascending order with no comparison sort, and stops at
	// the largest key; reading a bucket also resets it.
	for v, left := 0, int32(len(keys)); left > 0; v++ {
		if n := counts[v]; n != 0 {
			p.groups = append(p.groups, Group{Val: uint16(v), N: n})
			counts[v] = 0
			left -= n
		}
	}
	return p.groups
}

// Groups is Count over a histogram the caller built: counts[v] is how many
// of a column's rows keys hold value v. It returns every non-empty value in
// ascending order with its size and no slot, like Count, and resets counts
// to zero; Scatter then takes the column the histogram describes. counts
// must not be longer than the Partitioner's domain. Groups reads every
// entry of counts and panics when they are not the histogram of rows keys
// (a negative entry, or a sum other than rows): stale counts left by an
// earlier caller would otherwise come back as groups of the wrong size.
func (p *Partitioner) Groups(counts []int32, rows int) []Group {
	if len(counts) > len(p.counts) {
		panic(fmt.Sprintf("csort: histogram of %d values exceeds domain %d", len(counts), len(p.counts)-1))
	}
	// Every bucket writes a group into the next slot, and only a non-empty
	// one advances past it: the loop never branches on a count, whose
	// pattern over a sparse histogram the branch predictor would miss.
	groups := p.groups[:len(counts)]
	k := 0
	var sum int64
	var neg int32
	for v, n := range counts {
		groups[k] = Group{Val: uint16(v), N: n}
		if n != 0 {
			k++
		}
		sum += int64(n)
		neg |= n
	}
	clear(counts)
	p.rows = rows
	p.groups = groups[:k]
	if sum != int64(rows) || neg < 0 {
		panic(fmt.Sprintf("csort: histogram counts %d keys, not %d (negative entry: %v)", sum, rows, neg < 0))
	}
	return p.groups
}

// Scatter stably moves into out[g.Lo:g.Hi] the ids of every group g of the
// last Count that the caller gave a slot, where keys[i] is the key of ids[i]
// and keys is the column Count read. Unslotted groups are not moved and the
// rest of out is left as it was. ids, keys and out must have the same
// length, out must not alias ids, and slots must not overlap; Scatter panics
// on a slot whose size is not its group's or that lies outside out.
func (p *Partitioner) Scatter(ids []int32, keys []uint16, out []int32) {
	if len(keys) != len(ids) || len(out) != len(ids) || len(keys) != p.rows {
		panic(fmt.Sprintf("csort: ids length %d, keys length %d, out length %d, counted %d differ", len(ids), len(keys), len(out), p.rows))
	}
	// A negative start marks a value whose ids stay where they are.
	starts := p.starts
	for _, g := range p.groups {
		if g.Lo == g.Hi {
			starts[g.Val] = -1
			continue
		}
		if g.Hi-g.Lo != g.N || g.Lo < 0 || int(g.Hi) > len(out) {
			panic(fmt.Sprintf("csort: slot [%d, %d) of value %d does not fit %d ids in %d", g.Lo, g.Hi, g.Val, g.N, len(out)))
		}
		starts[g.Val] = g.Lo
	}
	for i, k := range keys {
		if s := starts[k]; s >= 0 {
			out[s] = ids[i]
			starts[k] = s + 1
		}
	}
}

// Partition is Count, then a slot for every group with at least minSize
// members whose key is not skip, then Scatter: the slotted groups lie back
// to back from out[0] and the rest of out is left as it was. out must have
// the same length as ids and keys and not alias ids.
//
// The returned group slice is owned by the Partitioner and is invalidated by
// the next Count or Partition call.
func (p *Partitioner) Partition(ids []int32, keys []uint16, minSize int, skip uint16, out []int32) []Group {
	if len(keys) != len(ids) || len(out) != len(ids) {
		panic(fmt.Sprintf("csort: ids length %d, keys length %d, out length %d differ", len(ids), len(keys), len(out)))
	}
	groups := p.Count(keys)
	var off int32
	for i := range groups {
		g := &groups[i]
		if int(g.N) < minSize || g.Val == skip {
			continue
		}
		g.Lo, g.Hi = off, off+g.N
		off += g.N
	}
	if off > 0 {
		p.Scatter(ids, keys, out)
	}
	return groups
}
