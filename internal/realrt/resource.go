package realrt

import (
	"fmt"
	"sync"

	"cudele/internal/runtime"
)

// task asserts a runtime.Task down to this engine's concrete task type.
func task(t runtime.Task) *Task {
	tt, ok := t.(*Task)
	if !ok {
		panic(fmt.Sprintf("realrt: task %T is not a real-backend task", t))
	}
	return tt
}

// Resource is the real backend's FIFO server: internal/runtime's ledger
// with the busy-time integral on wall time. It is acquired and released
// from any domain, so mu guards the ledger; the queueing calls take it
// directly and the ledger's reporting methods through sync.Locker.
type Resource struct {
	runtime.Ledger
	eng *Engine
	mu  sync.Mutex
}

func newResource(e *Engine, name string, capacity int) *Resource {
	r := &Resource{eng: e}
	r.Init(e, &r.mu, name, capacity)
	return r
}

// Acquire takes one unit, blocking t in FIFO order until one is free.
func (r *Resource) Acquire(t runtime.Task) {
	tt := task(t)
	tt.MayPark()
	r.mu.Lock()
	now := r.eng.Now()
	if !r.Request(now) {
		r.Enqueue(tt)
		tt.Park(&r.mu)
		// Woken by Release with the unit already transferred to us.
		r.Waited(runtime.Duration(r.eng.Now() - now))
	}
	r.mu.Unlock()
}

// TryAcquire takes one unit if immediately available.
func (r *Resource) TryAcquire() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.Admit(r.eng.Now())
}

// Release returns one unit and hands it to the head waiter, if any.
func (r *Resource) Release() {
	r.mu.Lock()
	if r.Vacate(r.eng.Now()) {
		r.mu.Unlock()
		return
	}
	next := r.HandOff()
	r.mu.Unlock()
	next.Wake()
}

// Use acquires one unit, holds it for service duration d, then releases.
func (r *Resource) Use(t runtime.Task, d runtime.Duration) {
	r.Acquire(t)
	t.Sleep(d)
	r.Release()
}
