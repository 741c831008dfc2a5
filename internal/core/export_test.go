package core

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
