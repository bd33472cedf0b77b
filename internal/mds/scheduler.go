package mds

import (
	"errors"
	"fmt"

	"cudele/internal/namespace"
	"cudele/internal/runtime"
	"cudele/internal/transport"
)

// The merge scheduler is the streamed (chunked) Volatile Apply path.
// Where the one-shot handler (merge.go) lets every arriving journal
// start merging at once — so N simultaneous journals each pay the full
// N-way congestion premium for their entire length — the scheduler
// admits at most MergeAdmitMax jobs, buffers each job's chunks in a
// bounded flow-control window, and round-robins the MDS CPU across the
// admitted jobs one chunk at a time. Arrivals beyond the admission bound
// and chunks beyond a job's window get backpressure replies; the client
// retries after MergeRetryDelay. Everything runs on simulated time, so
// the schedule is deterministic.

// mergeJob is one admitted streamed merge.
type mergeJob struct {
	id      uint64
	client  string
	win     *transport.Window
	applied int
	err     error
	last    bool // final chunk has been received
	aborted bool // client abandoned the stream; discard and retire
	done    runtime.Signal
	maxWait runtime.Duration // longest any of this job's chunks sat buffered
}

// mergeSched is one rank's merge scheduler.
type mergeSched struct {
	s      *Server
	jobs   []*mergeJob // admitted, in admission order
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

	// finished holds completed jobs until their MergeWaitMsg arrives.
	finished map[uint64]*mergeJob

	// waits collects each completed job's max chunk wait — the fairness
	// record: round-robin interleaving keeps the spread between jobs
	// small even when their journals differ in size.
	waits    []runtime.Duration
	peakJobs int
}

func newMergeSched(s *Server) *mergeSched {
	return &mergeSched{s: s, finished: make(map[uint64]*mergeJob)}
}

// find returns the admitted job with the given stream id.
func (ms *mergeSched) find(id uint64) *mergeJob {
	for _, j := range ms.jobs {
		if j.id == id {
			return j
		}
	}
	return nil
}

// mergeOpen is the MergeOpenMsg handler: admission control. A rejected
// open costs the MDS nothing — the client pays the retry delay — so
// bounded admission caps the congestion multiplier every admitted job's
// events are priced at.
func (s *Server) mergeOpen(p runtime.Task, m *MergeOpenMsg) *MergeOpenReply {
	if s.stopped {
		return &MergeOpenReply{Err: ErrShutdown}
	}
	ms := s.merge
	if max := s.cfg.MergeAdmitMax; max > 0 && len(ms.jobs)+ms.admitting >= max {
		s.metrics.MergeBackpressure++
		return &MergeOpenReply{Backpressure: true, QueueDepth: len(ms.jobs) + ms.admitting}
	}
	ms.admitting++

	// The open request crosses the wire like the one-shot merge header
	// does; session/inode-range validation before any chunk applies.
	p.Sleep(s.cfg.NetLatency)
	s.cpu.Use(p, s.cfg.MDSMergeSetup)
	s.metrics.MergeJobs++
	ms.admitting--

	win := s.cfg.MergeWindowChunks
	if win < 1 {
		win = 4
	}
	ms.nextID++
	job := &mergeJob{
		id:     ms.nextID,
		client: m.Client,
		win:    transport.NewWindow(win),
		done:   s.eng.NewSignal(),
	}
	ms.jobs = append(ms.jobs, job)
	if len(ms.jobs) > ms.peakJobs {
		ms.peakJobs = len(ms.jobs)
	}
	s.mergeQueue++
	ms.ensureRunning()
	return &MergeOpenReply{ID: job.id, Window: win, QueueDepth: len(ms.jobs)}
}

// mergeChunk is the MergeChunkMsg handler: accept the chunk into the
// job's window — charging the per-chunk wire cost on the shared fabric —
// or answer with backpressure when the window is full.
func (s *Server) mergeChunk(p runtime.Task, m *MergeChunkMsg) *MergeChunkReply {
	if s.stopped {
		return &MergeChunkReply{Err: ErrShutdown}
	}
	job := s.merge.find(m.ID)
	if job == nil {
		return &MergeChunkReply{Err: fmt.Errorf("mds: merge stream %d: %w", m.ID, namespace.ErrInval)}
	}
	if job.win.Len() >= job.win.Limit() {
		s.metrics.MergeBackpressure++
		return &MergeChunkReply{Backpressure: true, Window: job.win.Len()}
	}
	// Per-chunk wire billing: latency plus this chunk's bytes on the
	// shared fabric, pipelining the network under the CPU of earlier
	// chunks.
	p.Sleep(s.cfg.NetLatency)
	if m.Bytes > 0 {
		s.obj.Net().Transfer(p, m.Bytes)
	}
	// The wire yield above may have let the stream abort or another
	// sender fill the window: re-verify rather than assume the pre-check
	// still holds. The chunk crossed the wire either way, so these
	// rejections are not free like the pre-check one.
	if job.aborted {
		return &MergeChunkReply{Err: ErrMergeAborted}
	}
	if !job.win.TryPush(p.Now(), m) {
		s.metrics.MergeBackpressure++
		return &MergeChunkReply{Backpressure: true, Window: job.win.Len()}
	}
	s.metrics.MergeChunks++
	s.merge.kick()
	return &MergeChunkReply{Window: job.win.Len()}
}

// mergeWait is the MergeWaitMsg handler: block the client until its
// streamed merge drains, then surface the result.
func (s *Server) mergeWait(p runtime.Task, m *MergeWaitMsg) *MergeReply {
	ms := s.merge
	job := ms.find(m.ID)
	if job == nil {
		job = ms.finished[m.ID]
	}
	if job == nil {
		return &MergeReply{Err: fmt.Errorf("mds: merge stream %d: %w", m.ID, namespace.ErrInval)}
	}
	job.done.Wait(p)
	delete(ms.finished, m.ID)
	return &MergeReply{Applied: job.applied, Err: job.err}
}

// ErrMergeAborted marks a streamed merge its client abandoned mid-stream.
var ErrMergeAborted = errors.New("mds: merge aborted by client")

// mergeAbort is the MergeAbortMsg handler: the client hit an error and is
// abandoning the stream. The job is flagged; the scheduler proc discards
// its buffered chunks and retires it, releasing the admission slot and
// the merge-queue congestion share. It works on a stopped server too —
// that is exactly when clients abort.
func (s *Server) mergeAbort(p runtime.Task, m *MergeAbortMsg) *MergeAbortReply {
	p.Sleep(s.cfg.NetLatency)
	ms := s.merge
	if job := ms.find(m.ID); job != nil {
		job.aborted = true
		if job.err == nil {
			job.err = ErrMergeAborted
		}
		ms.ensureRunning()
		return &MergeAbortReply{}
	}
	if _, ok := ms.finished[m.ID]; ok {
		// The merge drained before the abort arrived. The client is not
		// going to send a MergeWaitMsg, so drop the completion record.
		delete(ms.finished, m.ID)
		return &MergeAbortReply{}
	}
	return &MergeAbortReply{Err: fmt.Errorf("mds: merge stream %d: %w", m.ID, namespace.ErrInval)}
}

// ensureRunning spawns the scheduler proc if it is not alive, or wakes
// it if it is parked.
func (ms *mergeSched) ensureRunning() {
	if ms.running {
		ms.kick()
		return
	}
	ms.running = true
	ms.s.dom.Spawn(ms.s.ep.Name()+".mergesched", ms.run)
}

// kick wakes a parked scheduler proc.
func (ms *mergeSched) kick() {
	if ms.idle != nil {
		idle := ms.idle
		ms.idle = nil
		idle.Fire(nil)
	}
}

// pick returns the next job with a buffered chunk, round-robin from the
// last serviced position, or nil when every window is empty.
func (ms *mergeSched) pick() *mergeJob {
	n := len(ms.jobs)
	for i := 0; i < n; i++ {
		job := ms.jobs[(ms.rr+i)%n]
		if job.win.Len() > 0 {
			ms.rr = (ms.rr + i + 1) % n
			return job
		}
	}
	return nil
}

// run is the scheduler proc: one chunk from one job per iteration, at
// the congestion-priced per-event cost, until no admitted jobs remain.
// The proc exits when the rank has no streamed merges, so an idle rank
// leaks no goroutine (sim.Engine.LeakCheck stays clean).
func (ms *mergeSched) run(p runtime.Task) {
	s := ms.s
	for {
		ms.retireAborted(p)
		job := ms.pick()
		if job == nil {
			if len(ms.jobs) == 0 {
				ms.running = false
				return
			}
			// Admitted jobs exist but every window is empty: park until
			// the next chunk arrives.
			ms.idle = s.eng.NewSignal()
			ms.idle.Wait(p)
			continue
		}
		payload, waited, _ := job.win.Pop(p.Now())
		if waited > job.maxWait {
			job.maxWait = waited
		}
		chunk := payload.(*MergeChunkMsg)
		if chunk.Last {
			job.last = true
		}
		if job.err == nil && len(chunk.Events) > 0 {
			rec := s.eng.Tracer()
			span := rec.Begin(int64(p.Now()), s.ep.Name(), "mds", "merge.apply")
			per := s.mergeApplyCost()
			before := job.applied
			s.cpu.Acquire(p)
			p.Sleep(per * runtime.Duration(len(chunk.Events)))
			for _, ev := range chunk.Events {
				if err := s.store.ApplyEvent(ev); err != nil {
					job.err = fmt.Errorf("volatile apply: %w", err)
					break
				}
				job.applied++
				s.metrics.Merged++
			}
			s.cpu.Release()
			rec.End(span, int64(p.Now()))
			if s.heat != nil && job.applied > before {
				s.heat.RecordMerge(int64(p.Now()), s.heatSubtree(chunk.Route), s.rank,
					job.applied-before, chunk.Bytes)
			}
		}
		if job.last && job.win.Len() == 0 {
			ms.finish(job)
		}
	}
}

// retireAborted discards and finishes jobs whose client abandoned the
// stream, so their admission slots free up and the proc never parks on
// chunks that will not come.
func (ms *mergeSched) retireAborted(p runtime.Task) {
	for i := 0; i < len(ms.jobs); {
		job := ms.jobs[i]
		if !job.aborted {
			i++
			continue
		}
		for job.win.Len() > 0 {
			job.win.Pop(p.Now())
		}
		ms.finish(job) // removes jobs[i]; re-examine the same index
	}
}

// finish retires a drained job: release its admission slot, record its
// fairness sample, and release the waiting client. Aborted jobs are no
// fairness sample and get no completion record — their client is gone.
func (ms *mergeSched) finish(job *mergeJob) {
	for i, j := range ms.jobs {
		if j == job {
			ms.jobs = append(ms.jobs[:i], ms.jobs[i+1:]...)
			break
		}
	}
	ms.s.mergeQueue--
	job.done.Fire(nil)
	if job.aborted {
		return
	}
	ms.waits = append(ms.waits, job.maxWait)
	ms.finished[job.id] = job
}

// MergeFairness reports the spread between the largest and smallest
// per-job max chunk wait across completed streamed merges — the fairness
// metric the round-robin scheduler bounds — and how many streamed jobs
// completed. Zero jobs yields a zero spread.
func (s *Server) MergeFairness() (spread runtime.Duration, jobs int) {
	ws := s.merge.waits
	if len(ws) == 0 {
		return 0, 0
	}
	lo, hi := ws[0], ws[0]
	for _, w := range ws[1:] {
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	return hi - lo, len(ws)
}

// MergePeakJobs reports the most streamed merges ever admitted at once.
func (s *Server) MergePeakJobs() int { return s.merge.peakJobs }
