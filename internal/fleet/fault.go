package fleet

import (
	"errors"
	"sync"

	"bolt/internal/serve"
)

// ErrInjectedKill is the conventional error of a scripted kill: the
// BatchFault.Err that tests and benches pass to InjectFault.
var ErrInjectedKill = errors.New("fleet: injected worker failure")

// faultKey addresses one worker of one replica.
type faultKey struct{ replica, worker int }

// injector is the fleet's fault source: a scripted per-worker queue
// filled by InjectFault. It backs every replica's
// serve.ServerOptions.Fault hook.
type injector struct {
	mu       sync.Mutex
	scripted map[faultKey][]serve.BatchFault
}

// hook binds the injector to one replica as its serve.FaultHook.
func (in *injector) hook(replica int) serve.FaultHook {
	return func(worker int) serve.BatchFault {
		return in.next(replica, worker)
	}
}

// next pops the scripted fault for (replica, worker), or returns the
// zero fault (a healthy batch) when none is queued.
func (in *injector) next(replica, worker int) serve.BatchFault {
	in.mu.Lock()
	defer in.mu.Unlock()
	key := faultKey{replica, worker}
	q := in.scripted[key]
	if len(q) == 0 {
		return serve.BatchFault{}
	}
	if len(q) == 1 {
		delete(in.scripted, key)
	} else {
		in.scripted[key] = q[1:]
	}
	return q[0]
}

// InjectFault scripts the given fault for the next count batches
// dispatched to one worker of one replica — deterministic fault
// placement for tests and gated benches. A zero fault with count > 0
// scripts healthy batches, which delays the faults queued after them.
func (f *Fleet) InjectFault(replica, worker, count int, fault serve.BatchFault) {
	f.inj.mu.Lock()
	defer f.inj.mu.Unlock()
	key := faultKey{replica, worker}
	for i := 0; i < count; i++ {
		f.inj.scripted[key] = append(f.inj.scripted[key], fault)
	}
}
