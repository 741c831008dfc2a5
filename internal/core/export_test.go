package core

// CheckUnionTable returns the first broken invariant of inc's union table
// (see unionTable.check and unionTable.checkCaps), or nil.
func CheckUnionTable(inc *IncrementalSharded) error {
	if err := inc.pool.check(true, int32(inc.plan.ShardMinSupp)); err != nil {
		return err
	}
	return inc.pool.checkCaps(inc.sketches, inc.plan.ShardMinSupp-1)
}
