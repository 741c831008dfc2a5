package csort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// seq returns the ids 0..n-1.
func seq(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

func TestPartitionBasic(t *testing.T) {
	keys := []uint16{2, 0, 1, 2, 1, 1}
	ids := seq(len(keys))
	out := make([]int32, len(ids))
	p := New(3)
	groups := p.Partition(ids, keys, 1, 3, out)
	if len(groups) != 3 {
		t.Fatalf("groups = %v, want 3 groups", groups)
	}
	want := []struct {
		val    uint16
		member []int32
	}{
		{0, []int32{1}},
		{1, []int32{2, 4, 5}},
		{2, []int32{0, 3}},
	}
	for i, w := range want {
		g := groups[i]
		if g.Val != w.val || int(g.N) != len(w.member) || int(g.Hi-g.Lo) != len(w.member) {
			t.Fatalf("group %d = %+v, want val %d size %d", i, g, w.val, len(w.member))
		}
		for j, m := range w.member {
			if out[g.Lo+int32(j)] != m {
				t.Errorf("group %d slot %d = %d, want %d (stability)", i, j, out[g.Lo+int32(j)], m)
			}
		}
	}
}

// Pruned and skipped groups keep their sizes but get no rows; the surviving
// ones pack from out[0].
func TestPartitionPrunesBeforeScatter(t *testing.T) {
	keys := []uint16{2, 0, 1, 2, 1, 1, 0, 0}
	ids := []int32{10, 11, 12, 13, 14, 15, 16, 17}
	out := make([]int32, len(ids))
	p := New(3)
	groups := p.Partition(ids, keys, 3, 0, out)
	want := []Group{{Val: 0, N: 3}, {Val: 1, N: 3, Lo: 0, Hi: 3}, {Val: 2, N: 2}}
	if len(groups) != len(want) {
		t.Fatalf("groups = %+v, want %+v", groups, want)
	}
	for i := range want {
		if groups[i] != want[i] {
			t.Fatalf("groups = %+v, want %+v", groups, want)
		}
	}
	if got := out[:3]; got[0] != 12 || got[1] != 14 || got[2] != 15 {
		t.Errorf("surviving rows = %v, want [12 14 15]", got)
	}

	// Nothing survives: every size is still reported and out is untouched.
	for i := range out {
		out[i] = -1
	}
	groups = p.Partition(ids, keys, 4, 0, out)
	if len(groups) != 3 || groups[0].N != 3 || groups[1].N != 3 || groups[2].N != 2 {
		t.Fatalf("groups = %+v", groups)
	}
	for i, id := range out {
		if id != -1 {
			t.Fatalf("out[%d] = %d written with no surviving group", i, id)
		}
	}
}

func TestPartitionEmpty(t *testing.T) {
	p := New(5)
	groups := p.Partition(nil, nil, 1, 0, nil)
	if len(groups) != 0 {
		t.Errorf("empty input produced groups: %v", groups)
	}
}

func TestPartitionSingleValue(t *testing.T) {
	ids := []int32{5, 3, 9}
	out := make([]int32, 3)
	p := New(10)
	groups := p.Partition(ids, []uint16{7, 7, 7}, 1, 0, out)
	if len(groups) != 1 || groups[0].Val != 7 || groups[0].N != 3 || groups[0].Lo != 0 || groups[0].Hi != 3 {
		t.Fatalf("groups = %v", groups)
	}
	for i, id := range ids {
		if out[i] != id {
			t.Errorf("order not preserved: %v", out)
		}
	}
}

func TestPartitionPanics(t *testing.T) {
	p := New(2)
	assertPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	assertPanic("out length mismatch", func() {
		p.Partition([]int32{1, 2}, []uint16{0, 0}, 1, 0, make([]int32, 1))
	})
	assertPanic("keys length mismatch", func() {
		p.Partition([]int32{1, 2}, []uint16{0}, 1, 0, make([]int32, 2))
	})
	assertPanic("key out of domain", func() {
		p.Partition([]int32{1}, []uint16{9}, 1, 0, make([]int32, 1))
	})
}

func TestPartitionerReuse(t *testing.T) {
	p := New(100)
	out := make([]int32, 8)
	for round := 0; round < 50; round++ {
		r := rand.New(rand.NewSource(int64(round)))
		keys := make([]uint16, 8)
		for i := range keys {
			keys[i] = uint16(r.Intn(101))
		}
		ids := seq(len(keys))
		groups := p.Partition(ids, keys, 1, 101, out)
		total := 0
		for _, g := range groups {
			total += int(g.Hi - g.Lo)
			for _, id := range out[g.Lo:g.Hi] {
				if keys[id] != g.Val {
					t.Fatalf("round %d: id %d in group %d has key %d", round, id, g.Val, keys[id])
				}
			}
		}
		if total != len(ids) {
			t.Fatalf("round %d: groups cover %d of %d ids", round, total, len(ids))
		}
	}
}

// Property: Partition equals a stable sort by key restricted to the
// surviving groups. Groups are ascending and report every key's exact
// count; surviving groups (size ≥ minSize, key ≠ skip) are disjoint and
// dense from out[0]; pruned and skipped groups get no rows.
func TestPartitionMatchesStableSortProperty(t *testing.T) {
	p := New(16)
	f := func(raw []uint16, rawMin, rawSkip uint8) bool {
		keys := make([]uint16, len(raw))
		ids := make([]int32, len(raw))
		for i, k := range raw {
			keys[i] = k % 17
			ids[i] = int32(len(raw) - i) // not the identity: ids and keys are parallel
		}
		minSize := int(rawMin % 5)
		sk := uint16(rawSkip % 18) // 17 lies outside every key: no skip
		out := make([]int32, len(ids))
		groups := p.Partition(ids, keys, minSize, sk, out)

		count := map[uint16]int{}
		for _, k := range keys {
			count[k]++
		}
		keep := func(k uint16) bool { return count[k] >= minSize && k != sk }
		order := seq(len(ids))
		sort.SliceStable(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
		var ref []int32
		for _, i := range order {
			if keep(keys[i]) {
				ref = append(ref, ids[i])
			}
		}
		for i := range ref {
			if out[i] != ref[i] {
				return false
			}
		}
		if len(groups) != len(count) {
			return false
		}
		prev := -1
		covered := int32(0)
		for _, g := range groups {
			if int(g.Val) <= prev || int(g.N) != count[g.Val] {
				return false
			}
			prev = int(g.Val)
			if !keep(g.Val) {
				if g.Lo != g.Hi {
					return false
				}
				continue
			}
			if g.Lo != covered || g.Hi-g.Lo != g.N {
				return false
			}
			covered = g.Hi
		}
		return int(covered) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// BenchmarkPartition partitions a 64k-row key column over Pokec's largest
// domain (Region, |A| = 188) with a minimum group size that prunes about
// half of the groups before the scatter, as the miner's support threshold
// does.
func BenchmarkPartition(b *testing.B) {
	const n = 1 << 16
	keys := make([]uint16, n)
	r := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = uint16(r.Intn(188))
	}
	ids := seq(n)
	out := make([]int32, n)
	p := New(188)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Partition(ids, keys, n/188, 0, out)
	}
	b.SetBytes(int64(n * 2))
}

// Property: Count, a slot for a random subset of the groups, then Scatter
// equals a stable filter of the ids by key restricted to the slotted
// groups. Count reports every key's exact size in ascending order; each
// slotted group's ids land in its slot in input order; every position of
// out outside the slots keeps its old value. Keys span the whole domain,
// its maximum included.
func TestCountScatterMatchesStableFilterProperty(t *testing.T) {
	const domain = 16
	p := New(domain)
	f := func(raw []uint16, pick uint64, gap uint8) bool {
		keys := make([]uint16, len(raw))
		ids := make([]int32, len(raw))
		for i, k := range raw {
			keys[i] = k % (domain + 1)
			ids[i] = int32(len(raw) - i) // not the identity: ids and keys are parallel
		}
		count := map[uint16]int32{}
		for _, k := range keys {
			count[k]++
		}
		groups := p.Count(keys)
		if len(groups) != len(count) {
			return false
		}
		prev := -1
		for _, g := range groups {
			if int(g.Val) <= prev || g.N != count[g.Val] || g.Lo != 0 || g.Hi != 0 {
				return false
			}
			prev = int(g.Val)
		}
		// Slot a random subset, leaving a gap before each slot so the
		// unslotted positions are spread through out.
		out := make([]int32, len(ids))
		for i := range out {
			out[i] = -1
		}
		off, skip := int32(0), int32(gap%3)
		slotted := map[uint16]*Group{}
		for i := range groups {
			g := &groups[i]
			if pick&(1<<(uint(g.Val)%64)) == 0 || off+skip+g.N > int32(len(out)) {
				continue
			}
			off += skip
			g.Lo, g.Hi = off, off+g.N
			off = g.Hi
			slotted[g.Val] = g
		}
		p.Scatter(ids, keys, out)

		written := make([]bool, len(out))
		for val, g := range slotted {
			var ref []int32
			for i, k := range keys {
				if k == val {
					ref = append(ref, ids[i])
				}
			}
			for j, id := range ref {
				if out[int(g.Lo)+j] != id {
					return false
				}
				written[int(g.Lo)+j] = true
			}
		}
		for i, w := range written {
			if !w && out[i] != -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// A key outside the domain panics in Count and leaves no count behind: the
// Partitioner counts the next column exactly.
func TestCountOutOfDomainPanics(t *testing.T) {
	p := New(3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("key 4 in domain 3: no panic")
			}
		}()
		p.Count([]uint16{3, 1, 3, 4})
	}()
	groups := p.Count([]uint16{3, 0})
	want := []Group{{Val: 0, N: 1}, {Val: 3, N: 1}}
	if len(groups) != len(want) || groups[0] != want[0] || groups[1] != want[1] {
		t.Fatalf("groups after the panic = %+v, want %+v", groups, want)
	}
}

// Groups over a histogram the caller built gives Count's groups for the
// column it describes, leaves the histogram zero, and sets up Scatter for
// that column, on random columns over random domains.
func TestGroupsMatchesCount(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p, q := New(300), New(300)
	for trial := 0; trial < 500; trial++ {
		domain := 1 + r.Intn(300)
		keys := make([]uint16, r.Intn(400))
		for i := range keys {
			keys[i] = uint16(r.Intn(domain + 1))
		}
		counts := make([]int32, domain+1)
		for _, k := range keys {
			counts[k]++
		}
		want := append([]Group(nil), q.Count(keys)...)
		got := p.Groups(counts, len(keys))
		if len(got) != len(want) {
			t.Fatalf("trial %d: Groups %+v, Count %+v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Groups %+v, Count %+v", trial, got, want)
			}
		}
		for v, n := range counts {
			if n != 0 {
				t.Fatalf("trial %d: histogram holds %d at %d after Groups", trial, n, v)
			}
		}
		var off int32
		for i := range got {
			if r.Intn(2) == 0 {
				got[i].Lo, got[i].Hi = off, off+got[i].N
				off += got[i].N
			}
		}
		ids := seq(len(keys))
		out := make([]int32, len(keys))
		p.Scatter(ids, keys, out)
		for _, g := range got {
			for _, id := range out[g.Lo:g.Hi] {
				if keys[id] != g.Val {
					t.Fatalf("trial %d: id %d with key %d scattered into the group of %d", trial, id, keys[id], g.Val)
				}
			}
		}
	}
}

// Groups fails closed on a histogram that does not count the rows it is
// told of: short, over, or balanced by a negative entry, and one longer
// than the domain. Every entry it read is zero afterwards.
func TestGroupsBadHistogramPanics(t *testing.T) {
	p := New(3)
	for _, c := range []struct {
		name   string
		counts []int32
		rows   int
	}{
		{"short", []int32{1, 2, 0, 1}, 5},
		{"stale count above the rows", []int32{1, 2, 0, 1}, 3},
		{"negative entry", []int32{2, -1, 0, 1}, 2},
		{"no rows, stale count", []int32{0, 0, 1, 0}, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			p.Groups(c.counts, c.rows)
		}()
		for v, n := range c.counts {
			if n != 0 {
				t.Errorf("%s: entry %d holds %d after the panic", c.name, v, n)
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("histogram of 5 values in domain 3: no panic")
			}
		}()
		p.Groups(make([]int32, 5), 0)
	}()
}

// Scatter refuses a column other than the one counted, and slots that do
// not hold their group or fall outside out.
func TestScatterPanics(t *testing.T) {
	assertPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	p := New(2)
	keys := []uint16{1, 2, 1}
	ids := seq(3)
	assertPanic("column length differs from the counted one", func() {
		p.Count(keys)
		p.Scatter(ids[:2], keys[:2], make([]int32, 2))
	})
	assertPanic("slot size differs from the group's", func() {
		g := p.Count(keys)
		g[0].Lo, g[0].Hi = 0, 1
		p.Scatter(ids, keys, make([]int32, 3))
	})
	assertPanic("slot outside out", func() {
		g := p.Count(keys)
		g[0].Lo, g[0].Hi = 2, 4
		p.Scatter(ids, keys, make([]int32, 3))
	})
}

// BenchmarkCountSmall partitions a 256-row key column over Pokec's largest
// domain (Region, |A| = 188) with a minimum above every group, so nothing
// is scattered: the miner's typical call deep in the search, where a
// partition is small and every group falls below the support threshold.
func BenchmarkCountSmall(b *testing.B) {
	const n = 256
	keys := make([]uint16, n)
	r := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = uint16(r.Intn(188))
	}
	ids := seq(n)
	out := make([]int32, n)
	p := New(188)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Partition(ids, keys, n+1, 0, out)
	}
	b.SetBytes(int64(n * 2))
}
