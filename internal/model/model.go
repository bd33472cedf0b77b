// Package model holds the calibration constants for the simulated Cudele
// cluster in one place.
//
// Every constant is derived from an absolute number the paper reports
// (Sevilla et al., IPDPS 2018): single-client create rates for each
// mechanism, the metadata server's peak service rate, journal event size,
// and the CloudLab testbed's device characteristics. Benchmarks normalize
// exactly the way the paper's figures do, so the reproduced *shapes* are
// insensitive to modest drift in these absolutes.
package model

import "time"

// Config collects all device service times and protocol cost knobs for one
// simulated cluster. Use Default() and override fields per experiment.
type Config struct {
	// --- Client ---

	// ClientAppendTime is the client CPU time to append one metadata
	// update to its in-memory journal. Paper: ~11,000 creates/s for the
	// Append Client Journal mechanism (§V-A).
	ClientAppendTime time.Duration

	// ClientOpOverhead is per-operation client-side overhead on the RPC
	// path (syscall, serialization) beyond network and server time.
	ClientOpOverhead time.Duration

	// --- Network ---

	// NetLatency is the one-way message latency on the 10 GbE fabric.
	NetLatency time.Duration

	// NetBandwidth is the per-node NIC bandwidth in bytes/second.
	NetBandwidth float64

	// --- Metadata server ---

	// MDSOpTime is the MDS CPU time to fully process one metadata write
	// (create) with journaling off. Paper: single-MDS peak throughput is
	// about 3000 op/s (§II-A).
	MDSOpTime time.Duration

	// MDSLookupTime is the MDS CPU time for a read-only lookup; cheaper
	// than a create because no new dentry/inode is initialized.
	MDSLookupTime time.Duration

	// MDSJournalOpTime is the extra MDS CPU time per journaled update
	// (event encode + segment bookkeeping) when Stream is on.
	MDSJournalOpTime time.Duration

	// MDSJournalLatency is extra client-visible reply delay per journaled
	// update that does not consume MDS CPU (waiting for the update to be
	// queued safely). Together with MDSJournalOpTime it turns the 654
	// creates/s journal-off single-client rate into the paper's ~513/s
	// journal-on rate without also collapsing the saturated peak.
	MDSJournalLatency time.Duration

	// MDSDispatchCongestion scales per-segment dispatch CPU with the
	// number of segments dispatched at once: cost = MDSSegmentDispatchCPU
	// * (1 + (batch-1)*MDSDispatchCongestion). Larger dispatch sizes
	// steal more MDS cycles per segment (Fig 3a).
	MDSDispatchCongestion float64

	// MDSMergeCongestion scales per-event Volatile Apply cost with the
	// number of client journals waiting to merge, modeling the paper's
	// observation that 20 journals landing at once merge slower than one
	// (Fig 6a): cost = MDSApplyTime * (1 + queued*MDSMergeCongestion).
	MDSMergeCongestion float64

	// MDSSegmentDispatchCPU is the MDS CPU consumed to dispatch one
	// journal segment to the object store. Managing many concurrent
	// segments steals cycles from request processing; the per-dispatch
	// cost grows with the number of in-flight segments (Fig 3a).
	MDSSegmentDispatchCPU time.Duration

	// MDSApplyTime is the MDS CPU time to replay one journal event onto
	// the in-memory metadata store (Volatile Apply service rate). Paper:
	// Volatile Apply is 0.9x the client-journal baseline, ~12.2K
	// events/s (§V-A).
	MDSApplyTime time.Duration

	// MDSMergeSetup is the fixed MDS cost to begin merging one client
	// journal (session, inode-range validation). With 20 journals
	// arriving at once this congestion yields the paper's 15x ceiling
	// for create+merge (Fig 6a).
	MDSMergeSetup time.Duration

	// MDSCapRevokeTime is the MDS CPU time to revoke one client
	// capability when a directory becomes shared (Fig 3b/3c).
	MDSCapRevokeTime time.Duration

	// MDSRejectTime is the MDS CPU time to reject a request against a
	// subtree whose interfere policy is "block" (-EBUSY path, Fig 6b).
	MDSRejectTime time.Duration

	// MDSSessionOverhead is extra MDS CPU per op per additional active
	// client session beyond the first (lock contention, cap bookkeeping).
	// This reproduces the paper's observation that per-client slowdown
	// grows ~0.3x per concurrent client even with journaling off.
	MDSSessionOverhead time.Duration

	// MDSOpJitter is the relative, uniform service-time noise on each
	// MDS request (cache misses, allocator variance). Without it the
	// simulator is perfectly deterministic and cannot reproduce the
	// run-to-run variability the paper reports for interference
	// (Fig 3b / 6b: sd 0.44 vs 0.06).
	MDSOpJitter float64

	// --- Journal / object store ---

	// JournalEventBytes is the serialized size of one journal update.
	// Paper: ~2.5 KB/update, so 1M updates ~ 2.38 GB (§V-A).
	JournalEventBytes int

	// SegmentEvents is the number of journal events per segment.
	SegmentEvents int

	// DispatchSize is the number of journal segments the MDS may have in
	// flight to the object store at once (the Fig 3a tunable).
	DispatchSize int

	// OSDOpLatency is the fixed latency of one object-store operation
	// (read or write head, replication round). Calibrated so Nonvolatile
	// Apply's 4 object ops per update lands at the paper's 78x (§V-A).
	OSDOpLatency time.Duration

	// OSDDiskBandwidth is per-OSD disk bandwidth in bytes/second.
	OSDDiskBandwidth float64

	// LocalDiskBandwidth is the client-local disk bandwidth used by
	// Local Persist. Calibrated to the paper's 0.2x bar (§V-A).
	LocalDiskBandwidth float64

	// StripeUnit is the object size used when striping large logical
	// writes (journals) over the object store.
	StripeUnit int

	// Replicas is the replication factor for object writes.
	Replicas int

	// NumOSDs is the number of object storage daemons.
	NumOSDs int

	// --- Merge pipeline (streaming journal transfer) ---

	// MergeChunkEvents is the number of journal events per streamed merge
	// chunk. 0 disables chunking: the client ships the whole journal as
	// one message and the MDS merges it in a single job, which is the
	// calibrated behavior the paper's figures were fit against. Positive
	// values route a blind merge (and the persist mechanisms' transfers)
	// through the chunked stream pipeline, bounding peak client transfer
	// memory at roughly MergeChunkEvents * JournalEventBytes.
	MergeChunkEvents int

	// MergeWindowChunks is the flow-control window of a streamed merge:
	// how many chunks the MDS will buffer per merge job before answering
	// with backpressure. Only meaningful when MergeChunkEvents > 0.
	MergeWindowChunks int

	// MergeAdmitMax bounds how many merge jobs the scheduler admits
	// concurrently; arrivals beyond it get a backpressure reply and retry.
	// 0 means unbounded admission (the seed's all-at-once model, where
	// every queued journal inflates every other's per-event apply cost via
	// MDSMergeCongestion). Only meaningful when MergeChunkEvents > 0.
	MergeAdmitMax int

	// MergeRetryDelay is how long a client sleeps before re-sending a
	// merge open or chunk that was answered with backpressure.
	MergeRetryDelay time.Duration

	// --- Subtree migration (online export/import) ---
	//
	// Migration only runs when explicitly requested (Monitor.Migrate or
	// the balancer), so no calibrated baseline depends on these knobs.

	// MigrateChunkDirs is the number of encoded directory objects per
	// export chunk streamed from the exporting to the importing rank.
	MigrateChunkDirs int

	// MigrateWindowChunks is the importer's flow-control window: chunks
	// buffered per import before backpressure.
	MigrateWindowChunks int

	// MigrateAdmitMax bounds concurrent imports a rank admits; opens
	// beyond it get a backpressure reply and retry. 0 means unbounded
	// admission, as for MergeAdmitMax.
	MigrateAdmitMax int

	// MigrateRetryDelay is how long a backpressured export sender (or a
	// client bounced off a frozen subtree) waits before retrying.
	MigrateRetryDelay time.Duration

	// MigrateDirCPU is the exporting/importing rank's CPU time to encode
	// or install one directory object during migration. 0 means
	// MDSApplyTime.
	MigrateDirCPU time.Duration

	// --- Namespace sync (Fig 6c) ---

	// ForkBase is the fixed pause to fork the client for a namespace
	// sync (process bookkeeping before copy-on-write setup).
	ForkBase time.Duration

	// ForkCopyBandwidth is the memory-to-memory copy rate (bytes/second)
	// charged against the client pause for the in-memory journal pages
	// touched at fork time.
	ForkCopyBandwidth float64

	// SyncDrainBandwidth is the effective disk+network rate at which a
	// namespace-sync journal drains to the metadata server. The final
	// drain at job end is on the critical path, which is why very large
	// sync intervals cost more than the 10 s optimum (Fig 6c).
	SyncDrainBandwidth float64

	// InodeBytes is the in-memory size of one inode. Paper: ~1400 bytes
	// in CephFS Jewel (§IV-C).
	InodeBytes int

	// AllocatedInodesDefault is the default inode grant for a decoupled
	// subtree (§III-C).
	AllocatedInodesDefault int
}

// Default returns the calibrated configuration for the paper's CloudLab
// testbed (34 nodes, 10 GbE, 2x2.4 GHz CPUs, 400 GB SSDs; 1 monitor, 3
// OSDs, 1 MDS, up to 20 clients).
func Default() Config {
	return Config{
		// 11,000 appends/s.
		ClientAppendTime: 90909 * time.Nanosecond,
		// RPC path: 1 client journal-off = 654 creates/s = 1.529 ms/op
		// total. Decomposed: client overhead + 2x net latency + MDS op.
		// 1.529ms = 1.096ms client + 0.100ms RTT + 0.333ms MDS
		ClientOpOverhead: 1096 * time.Microsecond,
		NetLatency:       50 * time.Microsecond,
		NetBandwidth:     1.15e9, // ~10 GbE payload rate

		// 3000 op/s peak journal-off.
		MDSOpTime:     333 * time.Microsecond,
		MDSLookupTime: 120 * time.Microsecond,
		// Journal-on single client = ~513-549 creates/s; extra MDS CPU
		// per journaled op pushes the saturated peak to ~2470 op/s.
		MDSJournalOpTime:      72 * time.Microsecond,
		MDSJournalLatency:     220 * time.Microsecond,
		MDSSegmentDispatchCPU: 20 * time.Millisecond,
		MDSDispatchCongestion: 0.03,
		MDSMergeCongestion:    0.024,
		// Volatile Apply at ~12.2K events/s.
		MDSApplyTime:       82 * time.Microsecond,
		MDSMergeSetup:      100 * time.Millisecond,
		MDSCapRevokeTime:   250 * time.Microsecond,
		MDSRejectTime:      300 * time.Microsecond,
		MDSSessionOverhead: 1500 * time.Nanosecond,
		MDSOpJitter:        0.08,

		JournalEventBytes: 2500,
		SegmentEvents:     1024,
		DispatchSize:      40,

		// Nonvolatile Apply: 4 object ops/update -> 78x * 9.09s / 100K
		// = 7.09 ms/update => ~1.75ms/object op (+~0.3ms payload).
		OSDOpLatency:     1780 * time.Microsecond,
		OSDDiskBandwidth: 80e6,
		// Local Persist 0.2x: 244 MB / 1.82 s = ~134 MB/s.
		LocalDiskBandwidth: 134e6,
		StripeUnit:         4 << 20,
		Replicas:           3,
		NumOSDs:            3,

		// Chunked merge streaming is opt-in: MergeChunkEvents 0 keeps the
		// calibrated one-shot path; the retry delay only applies once a
		// backpressure reply has been received.
		MergeChunkEvents:  0,
		MergeWindowChunks: 4,
		MergeAdmitMax:     0,
		MergeRetryDelay:   2 * time.Millisecond,

		MigrateChunkDirs:    16,
		MigrateWindowChunks: 4,
		MigrateAdmitMax:     2,
		MigrateRetryDelay:   2 * time.Millisecond,

		ForkBase:           80 * time.Millisecond,
		ForkCopyBandwidth:  8e9,
		SyncDrainBandwidth: 300e6,
		InodeBytes:         1400,

		AllocatedInodesDefault: 100,
	}
}

// Validate reports configuration errors that would make a simulation
// meaningless (non-positive rates or sizes).
func (c Config) Validate() error {
	type check struct {
		ok   bool
		name string
	}
	checks := []check{
		{c.ClientAppendTime > 0, "ClientAppendTime"},
		{c.MDSOpTime > 0, "MDSOpTime"},
		{c.MDSLookupTime > 0, "MDSLookupTime"},
		{c.MDSApplyTime > 0, "MDSApplyTime"},
		{c.NetBandwidth > 0, "NetBandwidth"},
		{c.OSDDiskBandwidth > 0, "OSDDiskBandwidth"},
		{c.LocalDiskBandwidth > 0, "LocalDiskBandwidth"},
		{c.JournalEventBytes > 0, "JournalEventBytes"},
		{c.SegmentEvents > 0, "SegmentEvents"},
		{c.DispatchSize > 0, "DispatchSize"},
		{c.StripeUnit > 0, "StripeUnit"},
		{c.Replicas > 0, "Replicas"},
		{c.NumOSDs > 0, "NumOSDs"},
		{c.AllocatedInodesDefault > 0, "AllocatedInodesDefault"},
		{c.ForkCopyBandwidth > 0, "ForkCopyBandwidth"},
		{c.SyncDrainBandwidth > 0, "SyncDrainBandwidth"},
		{c.MergeWindowChunks > 0, "MergeWindowChunks"},
		{c.MigrateChunkDirs > 0, "MigrateChunkDirs"},
		{c.MigrateWindowChunks > 0, "MigrateWindowChunks"},
		// Zero disables chunking/admission bounding, or (MigrateDirCPU)
		// selects MDSApplyTime; negatives are nonsense.
		{c.MergeChunkEvents >= 0, "MergeChunkEvents"},
		{c.MergeAdmitMax >= 0, "MergeAdmitMax"},
		{c.MergeRetryDelay >= 0, "MergeRetryDelay"},
		{c.MigrateAdmitMax >= 0, "MigrateAdmitMax"},
		{c.MigrateRetryDelay >= 0, "MigrateRetryDelay"},
		{c.MigrateDirCPU >= 0, "MigrateDirCPU"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return &ConfigError{Field: ch.name}
		}
	}
	return nil
}

// ConfigError reports a non-positive configuration field.
type ConfigError struct{ Field string }

func (e *ConfigError) Error() string {
	return "model: config field " + e.Field + " must be positive"
}
