package fleet

import (
	"fmt"
	"time"

	"bolt/internal/gpu"
)

// AutoscaleOptions drives backlog-based fleet sizing. The signal is
// the mean modeled EFT backlog per live replica — the same seconds
// the router balances on — sampled once per poll; a decision needs
// SustainPolls consecutive polls past the threshold, so a single
// burst (or a single idle gap) does not thrash the fleet.
type AutoscaleOptions struct {
	// GrowBacklogSeconds grows the fleet when the mean per-replica
	// backlog stays above it. Zero disables growing.
	GrowBacklogSeconds float64
	// ShrinkBacklogSeconds shrinks the fleet when the mean per-replica
	// backlog stays below it. Zero disables shrinking.
	ShrinkBacklogSeconds float64
	// SustainPolls is how many consecutive polls must agree before a
	// decision fires. Values < 1 mean 1.
	SustainPolls int
	// MinReplicas floors the fleet size for shrinking (values < 1 mean
	// 1); MaxReplicas caps growing (0 means no cap).
	MinReplicas int
	MaxReplicas int
	// Grow is the device pool for replicas the autoscaler spawns (one
	// worker per entry). Nil clones the first configured replica.
	Grow []*gpu.Device
	// Interval, when > 0, polls in the background on a ticker. Zero
	// means manual polling via PollAutoscale (what the deterministic
	// benches use).
	Interval time.Duration
}

// Grow spawns one replica, deploys every registered tenant on it, and
// warms their variants before the router can see it — so when the
// deploy closures share a tuning log, the new replica compiles
// measurement-free from its peers' entries and serves at full speed
// from its first request. Returns the new replica's id.
func (f *Fleet) Grow() (int, error) {
	f.deployMu.Lock()
	defer f.deployMu.Unlock()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return -1, ErrClosed
	}
	devices := f.opts.Autoscale.Grow
	if len(devices) == 0 {
		devices = f.opts.Replicas[0]
	}
	specs := make([]*tenantSpec, 0, len(f.tenants))
	for _, spec := range f.tenants {
		specs = append(specs, spec)
	}
	r := f.addReplicaLocked(devices, true)
	// Hide the replica from the router until its tenants are warm.
	r.live = false
	f.mu.Unlock()
	for _, spec := range specs {
		if err := r.srv.Deploy(spec.name, spec.compile, spec.opts); err != nil {
			r.srv.Close()
			return -1, fmt.Errorf("fleet: grow replica %d: deploy %q: %w", r.id, spec.name, err)
		}
		if err := r.srv.Warm(spec.name); err != nil {
			r.srv.Close()
			return -1, fmt.Errorf("fleet: grow replica %d: warm %q: %w", r.id, spec.name, err)
		}
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		r.srv.Close()
		return -1, ErrClosed
	}
	r.live = true
	f.mu.Unlock()
	return r.id, nil
}

// Shrink retires the newest live replica (preferring autoscaler-grown
// ones): it leaves the routing set immediately, then drains — every
// request already queued on it is answered. Returns the retired
// replica's id, or an error when the fleet is already at
// MinReplicas.
func (f *Fleet) Shrink() (int, error) {
	f.deployMu.Lock()
	defer f.deployMu.Unlock()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return -1, ErrClosed
	}
	live := f.liveLocked()
	min := f.opts.Autoscale.MinReplicas
	if min < 1 {
		min = 1
	}
	if len(live) <= min {
		f.mu.Unlock()
		return -1, fmt.Errorf("fleet: already at %d replica(s)", len(live))
	}
	var victim *replica
	for _, r := range live { // grown replicas retire first, then newest
		switch {
		case victim == nil:
			victim = r
		case r.grown != victim.grown:
			if r.grown {
				victim = r
			}
		case r.id > victim.id:
			victim = r
		}
	}
	victim.live = false
	victim.shrinkEvents++
	f.mu.Unlock()
	victim.srv.Close()
	return victim.id, nil
}

// PollAutoscale samples the mean per-replica backlog once and applies
// the sizing policy, reporting what (if anything) it did. Benches
// call this between request waves for deterministic scaling; set
// AutoscaleOptions.Interval for background polling instead.
func (f *Fleet) PollAutoscale() (grew, shrank bool) {
	a := f.opts.Autoscale
	sustain := a.SustainPolls
	if sustain < 1 {
		sustain = 1
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return false, false
	}
	live := f.liveLocked()
	if len(live) == 0 {
		f.mu.Unlock()
		return false, false
	}
	total := 0.0
	for _, r := range live {
		total += r.srv.BacklogSeconds()
	}
	mean := total / float64(len(live))
	if a.GrowBacklogSeconds > 0 && mean > a.GrowBacklogSeconds {
		f.consecHigh++
	} else {
		f.consecHigh = 0
	}
	if a.ShrinkBacklogSeconds > 0 && mean < a.ShrinkBacklogSeconds {
		f.consecLow++
	} else {
		f.consecLow = 0
	}
	doGrow := f.consecHigh >= sustain && (a.MaxReplicas == 0 || len(live) < a.MaxReplicas)
	doShrink := !doGrow && f.consecLow >= sustain && len(live) > max(1, a.MinReplicas)
	if doGrow {
		f.consecHigh = 0
	}
	if doShrink {
		f.consecLow = 0
	}
	f.mu.Unlock()
	if doGrow {
		if _, err := f.Grow(); err == nil {
			grew = true
		}
	}
	if doShrink {
		if _, err := f.Shrink(); err == nil {
			shrank = true
		}
	}
	return grew, shrank
}

// autoscaleLoop is the background poller (AutoscaleOptions.Interval).
func (f *Fleet) autoscaleLoop(stop <-chan struct{}) {
	defer f.scaleWG.Done()
	t := time.NewTicker(f.opts.Autoscale.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			f.PollAutoscale()
		}
	}
}
