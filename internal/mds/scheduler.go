package mds

import (
	"errors"
	"fmt"
	"slices"

	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/runtime"
	"cudele/internal/transport"
)

// The stream scheduler is the receiving side of every windowed chunk
// stream a rank accepts. A rank runs two: streamed Volatile Apply
// (journal chunks, below) and subtree import (directory-object chunks,
// migrate.go). Where the one-shot merge (merge.go) lets every arriving
// journal start at once — so N simultaneous journals each pay the full
// N-way congestion premium for their entire length — a scheduler admits
// a bounded number of jobs, buffers each job's chunks in a bounded
// flow-control window, and round-robins the rank's CPU across the
// admitted jobs one chunk at a time. Arrivals beyond the admission bound
// and chunks beyond a job's window get backpressure replies; the sender
// retries after a delay. Everything runs on simulated time, so the
// schedule is deterministic.

// streamKind is what differs between a rank's two schedulers.
type streamKind struct {
	name     string // proc-name suffix and error label
	admitMax int    // concurrently admitted jobs; 0 means unbounded
	window   int    // chunks buffered per job before backpressure

	// admit runs once per admitted open, after the open crossed the wire:
	// kind-specific setup cost and accounting.
	admit func(p runtime.Task)
	// service applies one buffered chunk, advancing job.done or setting
	// job.err. It is only called while job.err is nil.
	service func(p runtime.Task, job *streamJob, chunk transport.StreamChunk)
	// retire, when set, runs as a job leaves the scheduler, drained or
	// aborted.
	retire func()

	chunks, backpressure *uint64 // the kind's Metrics counters
}

// streamJob is one admitted stream.
type streamJob struct {
	id      uint64
	win     *transport.Window
	done    int // items applied so far
	err     error
	last    bool // final chunk has been received
	aborted bool // sender abandoned the stream; discard and retire
	fin     runtime.Signal
	maxWait runtime.Duration // longest any of this job's chunks sat buffered
}

// streamSched is one rank's scheduler for one stream kind.
type streamSched struct {
	s *Server
	streamKind
	jobs   []*streamJob // admitted, in admission order
	nextID uint64
	rr     int // round-robin position in jobs

	// admitting counts opens that passed admission but are still paying
	// the setup cost. The admission check charges no simulated time, so
	// it must reserve the slot before the handler first yields —
	// otherwise every open arriving within one setup window would see an
	// empty job list and the bound would admit all of them.
	admitting int

	running bool           // scheduler proc is alive
	idle    runtime.Signal // non-nil while the proc is parked awaiting chunks

	// finished holds completed jobs until their wait message arrives.
	finished map[uint64]*streamJob

	// waits collects each completed job's max chunk wait — the fairness
	// record: round-robin interleaving keeps the spread between jobs
	// small even when their streams differ in size.
	waits    []runtime.Duration
	peakJobs int
}

func newStreamSched(s *Server, kind streamKind) *streamSched {
	return &streamSched{s: s, streamKind: kind, finished: make(map[uint64]*streamJob)}
}

// ErrStreamAborted marks a stream its sender abandoned midway.
var ErrStreamAborted = errors.New("mds: stream aborted by sender")

// unknown is the typed error for a stream id this scheduler does not
// hold. On a stopped rank that is a symptom, not the cause: Crash
// replaced the scheduler the id belonged to.
func (ss *streamSched) unknown(id uint64) error {
	if ss.s.stopped {
		return ErrShutdown
	}
	return fmt.Errorf("mds: %s stream %d: %w", ss.name, id, namespace.ErrInval)
}

// find returns the admitted job with the given stream id.
func (ss *streamSched) find(id uint64) *streamJob {
	for _, j := range ss.jobs {
		if j.id == id {
			return j
		}
	}
	return nil
}

// open is admission control. A rejected open costs the rank nothing —
// the sender pays the retry delay — so bounded admission caps the
// congestion multiplier every admitted job's items are priced at.
func (ss *streamSched) open(p runtime.Task) *StreamOpenReply {
	s := ss.s
	if s.stopped {
		return &StreamOpenReply{Err: ErrShutdown}
	}
	if depth := len(ss.jobs) + ss.admitting; ss.admitMax > 0 && depth >= ss.admitMax {
		*ss.backpressure++
		return &StreamOpenReply{Backpressure: true}
	}
	ss.admitting++
	p.Sleep(s.cfg.NetLatency) // the open crosses the wire like a one-shot header
	ss.admit(p)
	ss.admitting--

	ss.nextID++
	job := &streamJob{id: ss.nextID, win: transport.NewWindow(ss.window), fin: s.eng.NewSignal()}
	ss.jobs = append(ss.jobs, job)
	if len(ss.jobs) > ss.peakJobs {
		ss.peakJobs = len(ss.jobs)
	}
	ss.ensureRunning()
	return &StreamOpenReply{ID: job.id}
}

// push accepts a chunk into its job's window — charging the per-chunk
// wire cost on the shared fabric — or answers with backpressure when the
// window is full.
func (ss *streamSched) push(p runtime.Task, chunk transport.StreamChunk) *StreamChunkReply {
	s, info := ss.s, chunk.Stream()
	if s.stopped {
		return &StreamChunkReply{Err: ErrShutdown}
	}
	job := ss.find(info.ID)
	if job == nil {
		return &StreamChunkReply{Err: ss.unknown(info.ID)}
	}
	if job.win.Len() >= job.win.Limit() {
		*ss.backpressure++
		return &StreamChunkReply{Backpressure: true}
	}
	// Per-chunk wire billing: latency plus this chunk's bytes on the
	// shared fabric, pipelining the network under the CPU of earlier
	// chunks.
	p.Sleep(s.cfg.NetLatency)
	if info.Bytes > 0 {
		s.obj.Net().Transfer(p, info.Bytes)
	}
	// The wire yield above may have let the stream abort or another
	// sender fill the window: re-verify rather than assume the pre-check
	// still holds. The chunk crossed the wire either way, so these
	// rejections are not free like the pre-check one.
	if job.aborted {
		return &StreamChunkReply{Err: ErrStreamAborted}
	}
	if !job.win.TryPush(p.Now(), chunk) {
		*ss.backpressure++
		return &StreamChunkReply{Backpressure: true}
	}
	*ss.chunks++
	ss.kick()
	return &StreamChunkReply{}
}

// wait blocks the sender until its stream drains, then surfaces the
// result and drops the completion record.
func (ss *streamSched) wait(p runtime.Task, id uint64) (done int, err error) {
	job := ss.find(id)
	if job == nil {
		job = ss.finished[id]
	}
	if job == nil {
		return 0, ss.unknown(id)
	}
	job.fin.Wait(p)
	delete(ss.finished, id)
	return job.done, job.err
}

// abort flags a stream its sender is abandoning after an error. The
// scheduler proc discards the buffered chunks and retires the job,
// releasing its admission slot. It works on a stopped rank too — that is
// exactly when senders abort.
func (ss *streamSched) abort(p runtime.Task, id uint64) *StreamAbortReply {
	p.Sleep(ss.s.cfg.NetLatency)
	if job := ss.find(id); job != nil {
		ss.flagAborted(job, ErrStreamAborted)
		ss.ensureRunning()
		return &StreamAbortReply{}
	}
	if _, ok := ss.finished[id]; ok {
		// The stream drained before the abort arrived. The sender is not
		// going to wait for it, so drop the completion record.
		delete(ss.finished, id)
		return &StreamAbortReply{}
	}
	return &StreamAbortReply{Err: ss.unknown(id)}
}

func (ss *streamSched) flagAborted(job *streamJob, cause error) {
	job.aborted = true
	if job.err == nil {
		job.err = cause
	}
}

// crash retires every in-flight job with ErrShutdown — unblocking senders
// parked in wait — and returns the fresh scheduler that replaces this one.
// retire hooks still run against the server, so shared accounting (the
// merge queue's congestion share) drains to zero.
func (ss *streamSched) crash() *streamSched {
	for _, job := range ss.jobs {
		ss.flagAborted(job, ErrShutdown)
	}
	ss.ensureRunning()
	return newStreamSched(ss.s, ss.streamKind)
}

// ensureRunning spawns the scheduler proc if it is not alive, or wakes
// it if it is parked.
func (ss *streamSched) ensureRunning() {
	if ss.running {
		ss.kick()
		return
	}
	ss.running = true
	ss.s.dom.Spawn(ss.s.ep.Name()+"."+ss.name, ss.run)
}

// kick wakes a parked scheduler proc.
func (ss *streamSched) kick() {
	if ss.idle != nil {
		idle := ss.idle
		ss.idle = nil
		idle.Fire(nil)
	}
}

// pick returns the next job with a buffered chunk, round-robin from the
// last serviced position, or nil when every window is empty.
func (ss *streamSched) pick() *streamJob {
	n := len(ss.jobs)
	for i := 0; i < n; i++ {
		job := ss.jobs[(ss.rr+i)%n]
		if job.win.Len() > 0 {
			ss.rr = (ss.rr + i + 1) % n
			return job
		}
	}
	return nil
}

// run is the scheduler proc: one chunk from one job per iteration until
// no admitted jobs remain. The proc exits when the rank has no streams
// of this kind, so an idle rank leaks no goroutine (sim.Engine.LeakCheck
// stays clean).
func (ss *streamSched) run(p runtime.Task) {
	ss.s.labelSelf(ss.name)
	for {
		ss.retireAborted(p)
		job := ss.pick()
		if job == nil {
			if len(ss.jobs) == 0 {
				ss.running = false
				return
			}
			// Admitted jobs exist but every window is empty: park until
			// the next chunk arrives.
			ss.idle = ss.s.eng.NewSignal()
			ss.idle.Wait(p)
			continue
		}
		payload, waited, _ := job.win.Pop(p.Now())
		if waited > job.maxWait {
			job.maxWait = waited
		}
		chunk := payload.(transport.StreamChunk)
		if chunk.Stream().Last {
			job.last = true
		}
		if job.err == nil {
			ss.service(p, job, chunk)
		}
		if job.last && job.win.Len() == 0 {
			ss.finish(job)
		}
	}
}

// retireAborted discards and finishes jobs whose sender abandoned the
// stream, so their admission slots free up and the proc never parks on
// chunks that will not come.
func (ss *streamSched) retireAborted(p runtime.Task) {
	for i := 0; i < len(ss.jobs); {
		job := ss.jobs[i]
		if !job.aborted {
			i++
			continue
		}
		for job.win.Len() > 0 {
			job.win.Pop(p.Now())
		}
		ss.finish(job) // removes jobs[i]; re-examine the same index
	}
}

// finish retires a drained job: release its admission slot, record its
// fairness sample, and release the waiting sender. Aborted jobs are no
// fairness sample and get no completion record — their sender is gone.
func (ss *streamSched) finish(job *streamJob) {
	for i, j := range ss.jobs {
		if j == job {
			ss.jobs = append(ss.jobs[:i], ss.jobs[i+1:]...)
			break
		}
	}
	if ss.retire != nil {
		ss.retire()
	}
	job.fin.Fire(nil)
	if job.aborted {
		return
	}
	ss.waits = append(ss.waits, job.maxWait)
	ss.finished[job.id] = job
}

// fairness reports the spread of waits and how many jobs it covers.
func (ss *streamSched) fairness() (spread runtime.Duration, jobs int) {
	if len(ss.waits) == 0 {
		return 0, 0
	}
	return slices.Max(ss.waits) - slices.Min(ss.waits), len(ss.waits)
}

// --- streamed Volatile Apply: the journal-chunk instantiation ---

func newMergeSched(s *Server) *streamSched {
	return newStreamSched(s, streamKind{
		name:     "mergesched",
		admitMax: s.cfg.MergeAdmitMax,
		window:   s.cfg.MergeWindowChunks,
		admit: func(p runtime.Task) {
			// Session/inode-range validation before any chunk applies; the
			// job prices every concurrent merge from here on.
			s.cpu.Use(p, s.cfg.MDSMergeSetup)
			s.metrics.MergeJobs++
			s.mergeQueue++
		},
		service:      s.mergeService,
		retire:       func() { s.mergeQueue-- },
		chunks:       &s.metrics.MergeChunks,
		backpressure: &s.metrics.MergeBackpressure,
	})
}

// mergeService applies one journal chunk as a single run at the
// congestion-priced per-event cost.
func (s *Server) mergeService(p runtime.Task, job *streamJob, sc transport.StreamChunk) {
	chunk := sc.(*MergeChunkMsg)
	if len(chunk.Events) == 0 {
		return
	}
	rec := s.eng.Tracer()
	span := rec.Begin(int64(p.Now()), s.ep.Name(), "mds", "merge.apply")
	var r MergeReply
	s.applyRun(p, policy.ConsWeak, chunk.Events, 0, &r)
	job.done, job.err = job.done+r.Applied, r.Err
	rec.End(span, int64(p.Now()))
	if s.heat != nil && r.Applied > 0 {
		s.heat.RecordMerge(int64(p.Now()), s.heatSubtree(chunk.Route), s.rank, r.Applied, chunk.Bytes)
	}
}

// MergeFairness reports the spread between the largest and smallest
// per-job max chunk wait across completed streamed merges — the fairness
// metric the round-robin scheduler bounds — and how many streamed jobs
// completed. Zero jobs yields a zero spread.
func (s *Server) MergeFairness() (spread runtime.Duration, jobs int) { return s.merge.fairness() }
