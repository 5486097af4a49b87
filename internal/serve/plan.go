package serve

import (
	"iter"
	"math"
	"time"
)

// This file is the dispatch planner: the decision of how many queued
// rows a tenant's next batch takes and which compiled bucket it runs
// on. plan is a pure function of one tenant's bucket ladder, flags and
// price table, its queued rows in drain order, and the pool's modeled
// finish times: it takes no lock, reads no clock, starts no goroutine
// and mutates nothing, so equal inputs give equal plans. The scheduler
// (nextJob) owns readiness, the weighted-round-robin choice of tenant
// and the take; the planner owns only the batch's size.

// dispatchPlan is one sizing decision: take rows off the queue, run
// them on the bucket variant (bucket > take means zero-padded rows).
// The planner never returns take > bucket.
type dispatchPlan struct {
	take   int
	bucket int
}

// planTrace carries the planner's modeled alternatives out to the plan
// span: which formation mode ran and, when the padded planner priced
// both schedules, the strict chain's and the best padded rung's
// modeled finish times.
type planTrace struct {
	mode         string
	strictFinish float64
	padFinish    float64
}

// priceTable is one tenant's modeled batch costs, indexed by ladder
// rung and device class. A price survives its variant's eviction, so
// pricing an evicted variant never recompiles it — only the winning
// class's execution does. Only ladder buckets are priced: dispatch,
// planning and the backlog probe never run any other bucket.
type priceTable struct {
	// cost[r][c] is the modeled seconds of one rung-r batch on class c:
	// NaN until the class's compile resolves, +Inf if it failed.
	cost [][]float64
	// min[r] is the cheapest class's cost, +Inf until some class priced
	// rung r: the planner's device-agnostic cost of one launch.
	min []float64
	// pricing[r] marks rung r's pricing compiles in flight on
	// background goroutines.
	pricing []bool
}

func newPriceTable(rungs, classes int) priceTable {
	p := priceTable{
		cost:    make([][]float64, rungs),
		min:     make([]float64, rungs),
		pricing: make([]bool, rungs),
	}
	for r := range p.cost {
		p.cost[r] = make([]float64, classes)
		for c := range p.cost[r] {
			p.cost[r][c] = math.NaN()
		}
		p.min[r] = math.Inf(1)
	}
	return p
}

// resolve records class c's first resolution of rung r: the variant's
// modeled cost, or +Inf for a failed compile. A resolved price never
// changes, so a recompile after eviction does not reprice the rung.
func (p *priceTable) resolve(r, c int, cost float64) {
	if p.resolved(r, c) {
		return
	}
	p.cost[r][c] = cost
	if cost < p.min[r] {
		p.min[r] = cost
	}
}

// resolved reports whether class c has a price for rung r (a failed
// compile counts: its price is +Inf).
func (p *priceTable) resolved(r, c int) bool { return !math.IsNaN(p.cost[r][c]) }

// priced reports whether every class has resolved rung r.
func (p *priceTable) priced(r int) bool {
	for c := range p.cost[r] {
		if !p.resolved(r, c) {
			return false
		}
	}
	return true
}

// drainOrder appends up to limit of a tenant's queued rows to dst in
// the order batches drain them: rows whose deadline has passed first
// (MaxWait is a promise: an expired request must not be bypassed
// indefinitely by a stream of newer, higher-priority arrivals), then
// the rest, each pass in priority-then-FIFO order. A smaller limit
// yields a prefix of the same order, so the planner prices exactly the
// rows the take then removes.
func drainOrder(dst []*request, t *tenant, limit int, now time.Time) []*request {
	for _, expired := range [2]bool{true, false} {
		for _, pri := range priorityOrder {
			for _, r := range t.queues[pri] {
				if len(dst) < limit && r.deadline.After(now) != expired {
					dst = append(dst, r)
				}
			}
		}
	}
	return dst
}

// plan sizes a tenant's next batch from its first rows in drain order
// (at most its largest bucket; the tenant's whole ladder is priced).
// Continuous formation first decides how many of them to coalesce;
// the strict rule then runs the largest bucket not exceeding that
// count, and padding prices running them all on a larger rung against
// draining them as a strict chain. A tenant with both flags off is the
// strict rule alone, and a one-rung ladder pads nothing: there is no
// larger rung, and formation stops at one row. trace prices the strict
// chain even when no padded rung competes, so the plan span always
// carries both alternatives; the decision does not depend on it.
func plan(t *tenant, rows []*request, p *pool, trace bool) (dispatchPlan, planTrace) {
	pt := planTrace{mode: "strict"}
	switch {
	case t.continuous && t.pad:
		pt.mode = "continuous+padded"
	case t.continuous:
		pt.mode = "continuous"
	case t.pad:
		pt.mode = "padded"
	}
	if t.continuous {
		rows = rows[:formBatch(t, rows, p)]
	}
	n := len(rows)
	k := t.buckets[rungFor(t.buckets, n)]
	strict := dispatchPlan{take: k, bucket: k}
	if !t.pad {
		return strict, pt
	}
	// Every larger rung is priced by the same EFT preview the
	// dispatcher uses, at the full larger variant's cost. Padding wins
	// only on a strictly earlier modeled completion than the strict
	// chain: ties keep the strict plan, so it never changes a
	// cost-neutral schedule.
	arr := latestArrival(rows)
	padBucket, padFinish := 0, math.Inf(1)
	for r, b := range t.buckets {
		if b <= n {
			continue
		}
		if fin := p.previewFinish(t.prices.cost[r], arr); fin < padFinish {
			padBucket, padFinish = b, fin
		}
	}
	pt.padFinish = padFinish
	if padBucket == 0 && !trace {
		return strict, pt
	}
	pt.strictFinish = chainFinish(t, rows, p)
	if padBucket == 0 || !(padFinish < pt.strictFinish) {
		return strict, pt
	}
	return dispatchPlan{take: n, bucket: padBucket}, pt
}

// formBatch is continuous batch formation: starting from the first
// row, the batch absorbs the next queued arrival while the modeled
// marginal gain of one more row is positive, and returns the chosen
// row count. The gain of growing from m to m+1 rows is one saved
// single-row launch (the absorbed row no longer needs its own
// dispatch) plus the batch-cost delta c(m) − c(m+1), minus the extra
// wait the m rows already in the batch would pay if the next row's
// simulated arrival is later than the batch could start (its rows all
// present and a worker modeled free). Zero-gain rows are absorbed too:
// without padding, the chain-cost model plateaus exactly at bucket
// boundaries (rows past a full rung chain as their own dispatches at
// identical cost), and stopping there would wedge formation at the
// first rung forever — only a row that costs real extra wait (or a
// modeled loss) stops the scan. The scan is work-conserving: it only
// weighs rows already queued, never holds the batch for traffic that
// might arrive — so a continuous tenant's batch window is reduced to
// the MaxWait default for its requests. An unpriceable ladder makes
// the gain NaN or -Inf, which stops the scan (strict fallback
// downstream).
func formBatch(t *tenant, rows []*request, p *pool) int {
	m := 1
	if len(rows) <= m {
		return len(rows)
	}
	c1 := dispatchCost(t, 1)
	minSched := p.minSched()
	arrMax := rows[0].simArrival
	for m < len(rows) {
		next := rows[m].simArrival
		start := arrMax
		if minSched > start {
			start = minSched
		}
		extra := next - start
		if extra < 0 {
			extra = 0
		}
		gain := c1 + dispatchCost(t, m) - dispatchCost(t, m+1) - float64(m)*extra
		if !(gain >= 0) { // NaN-safe: an Inf-cost ladder stops here too
			break
		}
		if next > arrMax {
			arrMax = next
		}
		m++
	}
	return m
}

// dispatchCost is the modeled cost of draining m rows in one dispatch
// decision: with padding, the cheapest rung that fits them all;
// without, the summed cost of the greedy exact-bucket chain they would
// dispatch as.
func dispatchCost(t *tenant, m int) float64 {
	if t.pad {
		best := math.Inf(1)
		for r, b := range t.buckets {
			if b >= m && t.prices.min[r] < best {
				best = t.prices.min[r]
			}
		}
		return best
	}
	total := 0.0
	for r := range chain(t.buckets, m) {
		total += t.prices.min[r]
	}
	return total
}

// chainFinish prices the strict counterfactual for a set of rows:
// drain them as the greedy exact-bucket chain (in drain order, each
// segment arriving with its latest member) and EFT-place the chain on
// a scratch copy of the pool's finish times, returning its makespan.
func chainFinish(t *tenant, rows []*request, p *pool) float64 {
	scratch := append(make([]float64, 0, 8), p.sched...)
	finish := 0.0
	for r, i := range chain(t.buckets, len(rows)) {
		pl := p.placeOn(scratch, t.prices.cost[r], nil, latestArrival(rows[i:i+t.buckets[r]]))
		if !math.IsInf(pl.finish, 1) {
			scratch[pl.worker] = pl.finish
		}
		if pl.finish > finish {
			finish = pl.finish
		}
	}
	return finish
}

// chain is the greedy exact-bucket decomposition of n rows — how the
// strict rule drains them: it yields each segment's rung and the
// offset of its first row, largest rungs first.
func chain(ladder []int, n int) iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		for i := 0; i < n; {
			r := rungFor(ladder, n-i)
			if !yield(r, i) {
				return
			}
			i += ladder[r]
		}
	}
}

// rungFor returns the index of the largest rung not exceeding n (rung
// 0, bucket 1, always exists).
func rungFor(ladder []int, n int) int {
	r := 0
	for i, k := range ladder {
		if k <= n {
			r = i
		}
	}
	return r
}

// latestArrival is a batch's simulated arrival: no worker can start it
// before its latest member arrived.
func latestArrival(rows []*request) float64 {
	arr := 0.0
	for _, r := range rows {
		if r.simArrival > arr {
			arr = r.simArrival
		}
	}
	return arr
}
