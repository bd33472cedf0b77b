package client

import (
	"cudele/internal/trace"
)

// FillMetrics copies the client's cumulative counters, latency
// histograms, and local-disk utilization into a metric registry, labeled
// with the client's session name. Pull-time only: nothing on the
// operation path changes.
func (c *Client) FillMetrics(reg *trace.Registry) {
	who := trace.KV{Key: "client", Val: c.name}

	reg.Counter("cudele_client_creates_total", "Successful creates (any mechanism).", float64(c.stats.Creates), who)
	reg.Counter("cudele_client_local_lookups_total", "Lookups satisfied from the local dentry cache.", float64(c.stats.LocalLookups), who)
	reg.Counter("cudele_client_remote_lookups_total", "Lookup RPCs sent to the MDS.", float64(c.stats.RemoteLookups), who)
	reg.Counter("cudele_client_rpcs_total", "Metadata RPCs sent.", float64(c.stats.RPCs), who)
	reg.Counter("cudele_client_journal_appends_total", "Events appended to the client journal.", float64(c.stats.Appends), who)
	reg.Counter("cudele_client_rejected_total", "-EBUSY replies from blocked subtrees.", float64(c.stats.Rejected), who)
	reg.Counter("cudele_client_redirects_total", "Bounced requests retried.", float64(c.stats.Redirects), who)
	reg.Gauge("cudele_client_peak_transfer_bytes", "Largest single journal transfer buffer in nominal bytes (whole journal one-shot, one chunk streamed).", float64(c.stats.PeakTransferBytes), who)

	reg.Histogram("cudele_client_rpc_latency_seconds", "RPC round-trip latency.", &c.latency, who)
	reg.Histogram("cudele_client_create_latency_seconds", "Whole-Create latency (lookup + create RPCs).", &c.createLatency, who)

	disk := c.localDisk.Snapshot()
	reg.Gauge("cudele_client_disk_utilization", "Mean busy fraction of the client's local disk.", disk.Utilization, who)
}
