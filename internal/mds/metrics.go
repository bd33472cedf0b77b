package mds

import (
	"cudele/internal/trace"
)

// FillMetrics copies the rank's cumulative counters, journal state, and
// CPU utilization accounting into a metric registry, labeled with the
// rank's endpoint name. It is a pull-time export: nothing on the request
// path changes, so collection cannot perturb a simulation.
func (s *Server) FillMetrics(reg *trace.Registry) {
	daemon := trace.KV{Key: "daemon", Val: s.ep.Name()}

	reg.Counter("cudele_mds_requests_total", "Metadata RPCs served.", float64(s.metrics.Requests), daemon)
	for op := Op(0); op < opMax; op++ {
		if s.metrics.ByOp[op] == 0 {
			continue
		}
		reg.Counter("cudele_mds_requests_by_op_total", "Metadata RPCs served, by operation.",
			float64(s.metrics.ByOp[op]), daemon, trace.KV{Key: "op", Val: op.String()})
	}
	reg.Counter("cudele_mds_cap_revokes_total", "Directory read-caching capabilities revoked.", float64(s.metrics.CapRevokes), daemon)
	reg.Counter("cudele_mds_rejected_total", "Mutations rejected by interfere-block policies (-EBUSY).", float64(s.metrics.Rejected), daemon)
	reg.Counter("cudele_mds_journaled_total", "Events appended to the MDS journal.", float64(s.metrics.Journaled), daemon)
	reg.Counter("cudele_mds_dispatches_total", "Journal segments pushed to the object store.", float64(s.metrics.Dispatches), daemon)
	reg.Counter("cudele_mds_merged_events_total", "Client journal events merged via Volatile Apply.", float64(s.metrics.Merged), daemon)
	reg.Counter("cudele_mds_merge_jobs_total", "Client journals merged via Volatile Apply.", float64(s.metrics.MergeJobs), daemon)
	reg.Counter("cudele_mds_journal_bytes_total", "Nominal journal bytes streamed to the object store.",
		float64(s.metrics.JournalBytes), daemon)

	reg.Counter("cudele_mds_merge_chunks_total", "Streamed merge chunks accepted into flow-control windows.", float64(s.metrics.MergeChunks), daemon)
	reg.Counter("cudele_mds_merge_backpressure_total", "Merge opens and chunks answered with backpressure.", float64(s.metrics.MergeBackpressure), daemon)
	reg.Counter("cudele_mds_merge_conflicts_total", "Speculative predictions rejected at merge validation.", float64(s.metrics.MergeConflicts), daemon)

	reg.Counter("cudele_mds_bounced_total", "Requests and merges answered with a WrongRank redirect (frozen or foreign subtree).", float64(s.metrics.Bounced), daemon)
	reg.Counter("cudele_mds_exports_total", "Subtrees frozen for export on this rank.", float64(s.metrics.Exports), daemon)
	reg.Counter("cudele_mds_imports_total", "Import sessions admitted on this rank.", float64(s.metrics.Imports), daemon)
	reg.Counter("cudele_mds_import_chunks_total", "Directory-object chunks accepted into import windows.", float64(s.metrics.ImportChunks), daemon)
	reg.Counter("cudele_mds_import_backpressure_total", "Import opens and chunks answered with backpressure.", float64(s.metrics.ImportBackpressure), daemon)

	// Served-from-snapshot listings are the difference of the two; both
	// restart with the rank's in-memory store (Crash, Recover).
	lists := s.store.ListStats()
	reg.Counter("cudele_mds_dir_listings_total", "Ordered directory listings: readdir requests, tree walks, directory-object encodes, scrubs.", float64(lists.Listings), daemon)
	reg.Counter("cudele_mds_dir_listing_rebuilds_total", "Listings of a directory that changed since its last one, which collected and sorted its names again.", float64(lists.Rebuilds), daemon)

	reg.Gauge("cudele_mds_journal_events", "Untrimmed events in the MDS journal.", float64(s.stream.jrnl.Len()), daemon)
	reg.Gauge("cudele_mds_merge_queue_depth", "Client journals queued for Volatile Apply.", float64(s.mergeQueue), daemon)
	reg.Gauge("cudele_mds_merge_active_jobs", "Streamed merges admitted by the scheduler at collection time.", float64(len(s.merge.jobs)), daemon)
	reg.Gauge("cudele_mds_merge_peak_jobs", "Most streamed merges ever admitted at once.", float64(s.merge.peakJobs), daemon)
	if spread, jobs := s.MergeFairness(); jobs > 0 {
		reg.Gauge("cudele_mds_merge_chunk_wait_spread_seconds",
			"Spread of per-job max chunk waits across completed streamed merges.", spread.Seconds(), daemon)
	}
	reg.Gauge("cudele_mds_sessions", "Active client sessions.", float64(len(s.sessions)), daemon)

	cpu := s.cpu.Snapshot()
	reg.Gauge("cudele_mds_cpu_utilization", "Mean busy fraction of the rank's request-pipeline CPU.", cpu.Utilization, daemon)
	reg.Counter("cudele_mds_cpu_busy_seconds_total", "CPU busy time integral (unit-seconds).", cpu.BusyArea, daemon)
	reg.Counter("cudele_mds_cpu_acquires_total", "CPU grants requested.", float64(cpu.Acquires), daemon)
	reg.Counter("cudele_mds_cpu_wait_seconds_total", "Total queueing delay on the CPU.", cpu.WaitTotal.Seconds(), daemon)
	reg.Gauge("cudele_mds_cpu_queue_depth", "Requests waiting for the CPU at collection time.", float64(cpu.QueueLen), daemon)
}

// FillMetrics exports every rank's metrics.
func (c *Cluster) FillMetrics(reg *trace.Registry) {
	for _, s := range c.ranks {
		s.FillMetrics(reg)
	}
}
