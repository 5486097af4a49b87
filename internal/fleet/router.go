package fleet

import (
	"sync"
	"time"

	"bolt/internal/obs"
	"bolt/internal/serve"
	"bolt/internal/tensor"
)

// unhealthyAfter is how many consecutive failed attempts mark a
// replica unhealthy: the router stops picking it (unless it is the
// only choice) until a success resets the streak.
const unhealthyAfter = 3

// Result is one completed fleet request: the replica's serve.Result
// plus the routing story.
type Result struct {
	serve.Result
	// Replica is the replica that produced the delivered result.
	Replica int
	// Hedged reports that a duplicate attempt was issued for this
	// request (whether or not the hedge won).
	Hedged bool
	// Retried reports that the delivered result came from a retry after
	// the first attempt failed.
	Retried bool
}

// pickLocked chooses the live replica with the lowest modeled EFT
// backlog, skipping unhealthy replicas (and exclude) unless nothing
// else is live. Returns the choice and its backlog (caller holds
// f.mu).
func (f *Fleet) pickLocked(exclude *replica) (*replica, float64) {
	var best *replica
	bestBacklog := 0.0
	bestHealthy := false
	for _, r := range f.replicas {
		if !r.live || r == exclude {
			continue
		}
		backlog := r.srv.BacklogSeconds()
		healthy := r.consecFails < unhealthyAfter
		// A healthy replica always beats an unhealthy one; within a
		// health class, lowest backlog wins (ties keep the lowest id, so
		// routing is deterministic).
		switch {
		case best == nil,
			healthy && !bestHealthy,
			healthy == bestHealthy && backlog < bestBacklog:
			best, bestBacklog, bestHealthy = r, backlog, healthy
		}
	}
	return best, bestBacklog
}

// route is one routed request's supervision state. No goroutine waits
// on it: the replicas drive it by delivering each attempt's answer into
// an attemptSink, and the request moves on inside that call — deliver,
// wait for the other attempt, or ask for a retry. At most two attempts
// exist: the primary (att[0]) and one hedge or retry (att[1]).
//
// Every transition runs under mu. While a second attempt is being
// placed (placing), answers that arrive are parked in stash and applied
// once the placement outcome is known, so each answer is judged against
// the same state the placement would have left behind.
type route struct {
	f      *Fleet
	model  string
	inputs map[string]*tensor.Tensor
	opts   serve.InferOptions
	out    chan Result

	mu       sync.Mutex
	att      [2]attemptSink
	done     [2]bool // attempt answered
	second   bool    // att[1] was placed
	hedged   bool    // att[1] is (or was) a hedge
	isRetry  bool    // att[1] is a retry: att[0] already failed
	finished bool    // the caller's result was delivered
	placing  bool
	stash    [2]stashed
	stashed  int
	timer    *time.Timer // the hedge timer; nil when hedging is off
	note     routeNote
}

// attemptSink is the serve.Sink of one attempt: the route, the attempt's
// slot, and the replica it was placed on. Both live inside the route,
// so placing an attempt allocates nothing extra.
type attemptSink struct {
	rt  *route
	i   int
	rep *replica
}

// stashed is one attempt answer parked while a placement is in flight.
type stashed struct {
	i   int
	res serve.Result
}

// Deliver is an attempt's answer, called on the answering replica's
// goroutine. Nothing in it blocks: a retry it asks for is placed from a
// short-lived goroutine, since placing may wait on another replica's
// queue.
func (a *attemptSink) Deliver(res serve.Result) {
	rt := a.rt
	rt.mu.Lock()
	retry := false
	if rt.placing {
		rt.stash[rt.stashed] = stashed{i: a.i, res: res}
		rt.stashed++
	} else {
		retry = rt.step(a.i, res)
	}
	rt.mu.Unlock()
	if retry {
		go rt.place(true, res)
	}
	rt.f.routeWG.Done()
}

// step applies attempt i's answer (rt.mu held) and reports whether the
// request now needs a retry; step then has already marked the placement
// in progress and counted it on routeWG, so Close keeps waiting.
func (rt *route) step(i int, res serve.Result) bool {
	f := rt.f
	rep := rt.att[i].rep
	failed := res.Err != nil
	f.mu.Lock()
	if rt.finished {
		// A hedged loser's late answer: drained, and counted as a
		// cancellation rather than as a health signal.
		rep.hedgesCanceled++
		f.mu.Unlock()
		return false
	}
	if failed {
		rep.consecFails++
	} else {
		rep.consecFails = 0
		if i == 1 && !rt.isRetry {
			rep.hedgesWon++
		}
	}
	f.mu.Unlock()
	rt.done[i] = true
	switch {
	case !failed:
		// The first healthy answer wins. A hedge that wins after the
		// primary already failed delivered the retry's answer.
		rt.finish(res, i, i == 1 && (rt.isRetry || rt.done[0]))
	case i == 0 && !rt.second:
		// First failure and nothing else in flight: retry once on a
		// different replica.
		if rt.timer != nil {
			rt.timer.Stop()
		}
		rt.placing = true
		f.routeWG.Add(1)
		return true
	case rt.done[1-i]:
		// Both attempts failed: deliver the later error.
		rt.finish(res, i, i == 1 && rt.isRetry)
	}
	// Otherwise the other attempt is still in flight: a hedge doubles as
	// the failed primary's retry, and a failed hedge leaves the primary
	// to answer.
	return false
}

// hedge is the hedge timer's callback: if the primary is still the only
// attempt in flight, duplicate it on another replica.
func (rt *route) hedge() {
	rt.mu.Lock()
	if rt.finished || rt.placing || rt.second {
		rt.mu.Unlock()
		return
	}
	rt.placing = true
	rt.f.routeWG.Add(1)
	rt.mu.Unlock()
	rt.place(false, serve.Result{})
}

// place issues the second attempt — a hedge or, after the primary
// failed with prim, a retry — on the best live replica other than the
// primary's, then applies the outcome and any answers stashed
// meanwhile. The caller set rt.placing and counted the placement on
// routeWG. A rescued bulk request is escalated to PriorityNormal: its
// deadline is already at risk, so it must not languish in the target
// replica's bulk queue — but PriorityHigh would dispatch it alone in a
// padded bucket, and a failed batch's rescues arrive together, so
// keeping them batchable lets them coalesce back into one full bucket.
// When no other replica is live or the placement is rejected (closed,
// undeployed), a hedge is simply not issued and a retry delivers the
// primary's error.
func (rt *route) place(retry bool, prim serve.Result) {
	f := rt.f
	from := rt.att[0].rep
	opts := rt.opts
	if opts.Priority == serve.PriorityBulk {
		opts.Priority = serve.PriorityNormal
	}
	var to *replica
	f.mu.Lock()
	if !f.closed {
		to, _ = f.pickLocked(from)
	}
	f.mu.Unlock()
	placed := false
	if to != nil {
		rt.att[1].rep = to
		f.routeWG.Add(1)
		placed = to.srv.InferTo(rt.model, rt.inputs, opts, &rt.att[1]) == nil
		if !placed {
			f.routeWG.Done()
		}
	}
	rt.mu.Lock()
	rt.placing = false
	switch {
	case placed:
		rt.second, rt.isRetry = true, retry
		f.mu.Lock()
		if retry {
			from.retries++
		} else {
			from.hedgesIssued++
		}
		f.mu.Unlock()
		if retry {
			rt.note.retryFrom, rt.note.retryTo = from.id, to.id
		} else {
			rt.hedged = true
			rt.note.hedgeFrom, rt.note.hedgeTo = from.id, to.id
		}
	case retry:
		rt.finish(prim, 0, false)
	}
	// A hedge that could not be placed leaves at most the primary's
	// answer stashed, so at most one retry can come out of this loop.
	again, againRes := false, serve.Result{}
	for _, ev := range rt.stash[:rt.stashed] {
		if rt.step(ev.i, ev.res) {
			again, againRes = true, ev.res
		}
	}
	rt.stashed = 0
	rt.mu.Unlock()
	if again {
		go rt.place(true, againRes)
	}
	f.routeWG.Done()
}

// finish delivers the request's one result from attempt i (rt.mu
// held): it stops the hedge timer, counts the delivery, emits the
// fleet-level spans, and sends once on the caller's 1-buffered channel,
// so it never blocks.
func (rt *route) finish(res serve.Result, i int, retried bool) {
	rt.finished = true
	if rt.timer != nil {
		rt.timer.Stop()
	}
	f := rt.f
	rep := rt.att[i].rep
	f.mu.Lock()
	f.delivered++
	if res.Err != nil {
		f.deliveredErrs++
	}
	f.mu.Unlock()
	f.emitRoute(res, rep, rt.hedged, retried, rt.note)
	rt.out <- Result{Result: res, Replica: rep.id, Hedged: rt.hedged, Retried: retried}
}

// routeNote carries one routed request's placement story for span
// emission at delivery time. Replica ids are -1 until that transition
// actually happened.
type routeNote struct {
	model     string
	hedgeFrom int // replica whose risk triggered the hedge
	hedgeTo   int // replica the duplicate was placed on
	retryFrom int // replica whose failure triggered the retry
	retryTo   int // replica the follow-up was placed on
}

func newRouteNote(model string) routeNote {
	return routeNote{model: model, hedgeFrom: -1, hedgeTo: -1, retryFrom: -1, retryTo: -1}
}

// emitRoute records the fleet-level span tree for one delivered
// request: a route span covering the request's simulated lifetime on
// the winning replica, wrapped around hedge/retry spans when the
// router placed extra attempts. Spans are priced on the delivered
// result's sim-clock interval, so they nest exactly around the
// replica's own request spans in the exported trace.
func (f *Fleet) emitRoute(res serve.Result, rep *replica, hedged, retried bool, note routeNote) {
	if f.tr == nil {
		return
	}
	start, dur := res.SimArrival, res.SimLatency
	if dur < 0 {
		dur = 0
	}
	f.trShard.Emit(obs.Span{
		Name: obs.KindRoute, Cat: obs.CatFleet, Proc: f.trProc, Start: start, Dur: dur,
		Model: note.model, Replica: rep.id, Hedged: hedged, Retried: retried, Failed: res.Err != nil,
	})
	if note.hedgeTo >= 0 {
		f.trShard.Emit(obs.Span{
			Name: obs.KindHedge, Cat: obs.CatFleet, Proc: f.trProc, Start: start, Dur: dur,
			Model: note.model, From: note.hedgeFrom, To: note.hedgeTo, Replica: rep.id,
		})
	}
	if note.retryTo >= 0 {
		f.trShard.Emit(obs.Span{
			Name: obs.KindRetry, Cat: obs.CatFleet, Proc: f.trProc, Start: start, Dur: dur,
			Model: note.model, From: note.retryFrom, To: note.retryTo, Replica: rep.id,
		})
	}
}
