package dbest

// NewWithPlanCache returns an engine whose plan cache holds at most
// capacity plans (and capacity raw-text aliases), so capacity tests can
// overflow it with a handful of queries.
func NewWithPlanCache(capacity int) *Engine {
	e := New(nil)
	e.plans = newPlanCache(capacity)
	return e
}

// PlanCacheKeys reports how many keys the plan cache holds across its
// shards: normalized shapes plus raw-text aliases.
func PlanCacheKeys(e *Engine) int {
	n := 0
	for i := range e.plans.shards {
		n += len(e.plans.shards[i].Load().entries)
	}
	return n
}

// SamePlanCacheEntry reports whether texts a and b are both cached under
// the current generation and resolve to one entry, which holds a single
// plan and a single memoized result.
func SamePlanCacheEntry(e *Engine, a, b string) bool {
	gen := e.snap.Load().cat.Generation()
	ea, eb := e.plans.find(a, gen), e.plans.find(b, gen)
	return ea != nil && ea == eb
}
