package core

import "grminer/internal/store"

// CheckUnionTable returns the first broken invariant of inc's union table
// (see unionTable.check and unionTable.checkCaps), or nil.
func CheckUnionTable(inc *IncrementalSharded) error {
	if err := inc.pool.check(true, int32(inc.plan.ShardMinSupp)); err != nil {
		return err
	}
	return inc.pool.checkCaps(inc.sketches, inc.plan.ShardMinSupp-1)
}

// Untimed returns s without its wall-clock fields: what is left is a
// function of the walk alone, so identical walks give identical values.
func Untimed(s Stats) Stats {
	s.Duration, s.IndexTime, s.PlanTime, s.WalkTime, s.WalkBusy, s.MergeTime = 0, 0, 0, 0, 0, 0
	return s
}

// rowsLog counts a walk's requests for the rows of partitions handed down
// as bitmaps (miner.onRows): fresh counts the materialisations, and
// requests and materialised count both per first-level partition, a
// posting bitmap walkTask hands down, told apart by its first word.
type rowsLog struct {
	fresh                  int
	requests, materialised map[*uint64]int
}

// logRows installs a fresh rowsLog as m's rows hook.
func logRows(m *miner) *rowsLog {
	l := &rowsLog{requests: map[*uint64]int{}, materialised: map[*uint64]int{}}
	m.onRows = func(depth int, bm store.Bitmap, fresh bool) {
		if fresh {
			l.fresh++
		}
		if depth == 1 {
			l.requests[&bm[0]]++
			if fresh {
				l.materialised[&bm[0]]++
			}
		}
	}
	return l
}
