package obs

import (
	"context"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// Labels is the label plane: it names the owner of every host CPU sample
// a profile takes. Each task carries the pprof label {proc: <task name>}
// from spawn (both backends' Spawn), a metadata rank serving a message
// switches to {proc: mds.N, op: <message label>} for the handler and back,
// and the monitor does the same around its operations, so `go tool pprof
// -tags` prints the shares per daemon and per operation.
//
// The plane is process-wide, as a CPU profile is, and off unless a
// profile is being taken (cudele-bench -cpuprofile, cudele -cpuprofile):
// every label site first asks ProfLabels, and with the plane off that one
// nil check is all it pays. Switching labels touches no virtual clock, no
// random source and no protocol state, so the simulator's schedule is the
// same with the plane on.
type Labels struct {
	mu   sync.RWMutex
	ctxs map[labelKey]context.Context // each set built once
}

// labelKey names one prebuilt label set; op is empty for a task's own.
type labelKey struct{ proc, op string }

var labelPlane atomic.Pointer[Labels]

// EnableLabels turns the label plane on until disable is called. Call it
// before the tasks to be labelled are spawned: a task takes its label at
// spawn.
func EnableLabels() (disable func()) {
	labelPlane.Store(&Labels{ctxs: make(map[labelKey]context.Context)})
	return func() { labelPlane.Store(nil) }
}

// ProfLabels returns the label plane, nil while it is off.
func ProfLabels() *Labels { return labelPlane.Load() }

// Proc returns the prebuilt label set {proc: name}, a task's own.
func (l *Labels) Proc(name string) context.Context { return l.Op(name, "") }

// Op returns the prebuilt label set {proc, op}; an empty op gives Proc's.
// Each set is built once per process, so switching to one allocates
// nothing after the first time; a caller on a hot path keeps the result
// (a rank's per-message table).
func (l *Labels) Op(proc, op string) context.Context {
	k := labelKey{proc, op}
	l.mu.RLock()
	ctx := l.ctxs[k]
	l.mu.RUnlock()
	if ctx != nil {
		return ctx
	}
	set := pprof.Labels("proc", proc)
	if op != "" {
		set = pprof.Labels("proc", proc, "op", op)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ctxs[k] == nil {
		l.ctxs[k] = pprof.WithLabels(context.Background(), set)
	}
	return l.ctxs[k]
}

// Switch makes ctx the calling goroutine's label set: every CPU sample it
// takes from now on carries ctx's labels, as does every goroutine it
// starts.
func Switch(ctx context.Context) { pprof.SetGoroutineLabels(ctx) }

// StartCPUProfile turns the label plane on and starts a CPU profile of
// the whole process into the file at path; stop ends the profile, turns
// the plane off and closes the file. It is what a command's -cpuprofile
// flag runs, before it builds any cluster.
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	disable := EnableLabels()
	return func() error {
		pprof.StopCPUProfile()
		disable()
		return f.Close()
	}, nil
}
