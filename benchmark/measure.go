package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// processStart anchors span timestamps; spans are nanoseconds since it.
var processStart = time.Now()

// window is what one measured interval cost the process.
type window struct {
	wall  time.Duration
	cpu   time.Duration // user+sys, whole process (getrusage)
	alloc uint64        // MemStats.TotalAlloc delta
}

func (w *window) add(o window) {
	w.wall += o.wall
	w.cpu += o.cpu
	w.alloc += o.alloc
}

type windowMark struct {
	t     time.Time
	cpu   time.Duration
	alloc uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set so far (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024
}

// beginWindow starts a measured interval. ReadMemStats stops the world,
// so it is taken first and the clock last.
func beginWindow() windowMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return windowMark{alloc: ms.TotalAlloc, cpu: cpuTime(), t: time.Now()}
}

func (m windowMark) end() window {
	wall := time.Since(m.t)
	cpu := cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return window{wall: wall, cpu: cpu, alloc: ms.TotalAlloc - m.alloc}
}

// opKind names a foreground client call for spans and per-call medians.
type opKind uint8

const (
	opCreate opKind = iota
	opUnlink
	opRename
	opSetAttr
	opLookup
	opStat
	opResolve
	opReadDir
	opLocalCreate
	opLocalMkdir
	opLocalUnlink
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	"Create", "Unlink", "Rename", "SetAttr", "Lookup", "Stat", "Resolve", "ReadDir",
	"LocalCreate", "LocalMkdir", "LocalUnlink",
}

// callSpan is one traced client call: 24 bytes, so a repetition's
// hundreds of thousands of calls stay in memory until exit.
type callSpan struct {
	start int64 // ns since processStart
	dur   int32 // ns; calls longer than 2 s saturate
	kind  opKind
}

// taskRec collects what one client task observes. Each task owns its
// taskRec, so recording takes no lock. All buffers are sized before the
// measured window opens: recording allocates nothing.
type taskRec struct {
	name   string
	traced bool
	lat    []int64 // latency samples (ns) of calls in the workload's latency pool
	spans  []callSpan
	parent int // phaseSpan enclosing the task's calls, -1 if none
	byKind [numOpKinds]int64
	// attempted counts foreground calls issued, failed those that
	// returned an error or a wrong answer.
	attempted, failed int64
	firstErr          error
}

func newTaskRec(name string, traced bool, calls int) *taskRec {
	r := &taskRec{name: name, traced: traced, parent: -1, lat: make([]int64, 0, calls)}
	if traced {
		r.spans = make([]callSpan, 0, calls)
	}
	return r
}

// done records one finished call that began at t0. pool says whether the
// call belongs to the workload's op_p50/op_p99 sample pool.
func (r *taskRec) done(kind opKind, pool bool, t0 time.Time, err error) {
	d := time.Since(t0)
	r.attempted++
	r.byKind[kind]++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: %s: %w", r.name, opKindNames[kind], err)
		}
	}
	if pool {
		r.lat = append(r.lat, int64(d))
	}
	if r.traced {
		d32 := int32(1<<31 - 1)
		if d < time.Duration(d32) {
			d32 = int32(d)
		}
		r.spans = append(r.spans, callSpan{start: int64(t0.Sub(processStart)), dur: d32, kind: kind})
	}
}

// phaseSpan is a traced interval coarser than a call: a repetition, a
// cell, a client task, a composition or one of its mechanisms. parent
// indexes the enclosing phaseSpan in the same repetition (-1 for the
// repetition itself).
type phaseSpan struct {
	name       string
	track      string
	start, end int64
	parent     int
}

// counts are the public counters read after a repetition. On sim_storm
// they repeat exactly for a seed; the A/A mode compares them through the
// side line, hence the JSON names.
type counts struct {
	MDSRequests   uint64 `json:"mds_requests"`
	MDSCapRevokes uint64 `json:"mds_cap_revokes"`
	MDSSegments   uint64 `json:"mds_journal_segments"`
	MDSMerged     uint64 `json:"mds_merged_events"`
	RadosWrites   uint64 `json:"rados_writes"`
	RadosBytes    uint64 `json:"rados_bytes_written"`
	ClientRPCs    uint64 `json:"client_rpcs"`
}

func (c *counts) add(o counts) {
	c.MDSRequests += o.MDSRequests
	c.MDSCapRevokes += o.MDSCapRevokes
	c.MDSSegments += o.MDSSegments
	c.MDSMerged += o.MDSMerged
	c.RadosWrites += o.RadosWrites
	c.RadosBytes += o.RadosBytes
	c.ClientRPCs += o.ClientRPCs
}

// cellResult is one policy cell's share of a repetition.
type cellResult struct {
	ops  int64
	wall time.Duration
}

// extraTimings are traced-pass figures that are not a span median: sizes
// and durations of the durable mechanisms in real_io.
type extraTimings struct {
	localPersistNS, localPersistBytes   int64
	globalPersistNS, globalPersistBytes int64
	nonvolatileNS, nonvolatileEvents    int64
	fetchNS, fetchBytes                 int64
	mergeNS, mergeEvents                map[string]int64 // by consistency: weak, speculative, strong-eventual
	diskBytes, userBytes                int64
}

func newExtraTimings() *extraTimings {
	return &extraTimings{mergeNS: map[string]int64{}, mergeEvents: map[string]int64{}}
}

func (e *extraTimings) add(o *extraTimings) {
	e.localPersistNS += o.localPersistNS
	e.localPersistBytes += o.localPersistBytes
	e.globalPersistNS += o.globalPersistNS
	e.globalPersistBytes += o.globalPersistBytes
	e.nonvolatileNS += o.nonvolatileNS
	e.nonvolatileEvents += o.nonvolatileEvents
	e.fetchNS += o.fetchNS
	e.fetchBytes += o.fetchBytes
	e.diskBytes += o.diskBytes
	e.userBytes += o.userBytes
	for k, v := range o.mergeNS {
		e.mergeNS[k] += v
	}
	for k, v := range o.mergeEvents {
		e.mergeEvents[k] += v
	}
}

// repResult is one repetition of one workload.
type repResult struct {
	rep    int
	traced bool

	ops               int64 // foreground calls that completed
	attempted, failed int64
	win               window        // sum of the repetition's measured windows
	setup             time.Duration // repetition wall time outside them
	lat               []int64       // latency samples of the workload's pool, sorted
	virtualS          float64       // sim_storm: simulated seconds
	counts            counts
	byKind            [numOpKinds]int64
	cells             map[string]cellResult

	tasks  []*taskRec
	phases []phaseSpan
	extra  *extraTimings
}

func newRepResult(rep int, traced bool) *repResult {
	return &repResult{rep: rep, traced: traced, cells: map[string]cellResult{}, extra: newExtraTimings()}
}

// absorb folds the client tasks' records into the repetition.
func (r *repResult) absorb(tasks ...*taskRec) error {
	var firstErr error
	for _, t := range tasks {
		r.attempted += t.attempted
		r.failed += t.failed
		r.ops += t.attempted - t.failed
		r.lat = append(r.lat, t.lat...)
		for k, n := range t.byKind {
			r.byKind[k] += n
		}
		if firstErr == nil {
			firstErr = t.firstErr
		}
		if r.traced {
			r.tasks = append(r.tasks, t)
		}
	}
	return firstErr
}

func (r *repResult) sortLat() { slices.Sort(r.lat) }

// phase opens a phase span and returns its index; closePhase ends it.
// Both are no-ops returning -1 on untraced repetitions.
func (r *repResult) phase(name, track string, parent int) int {
	if !r.traced {
		return -1
	}
	r.phases = append(r.phases, phaseSpan{name: name, track: track, start: int64(time.Since(processStart)), parent: parent})
	return len(r.phases) - 1
}

func (r *repResult) closePhase(id int) {
	if id >= 0 {
		r.phases[id].end = int64(time.Since(processStart))
	}
}
