package rados

import (
	"strconv"

	"cudele/internal/trace"
)

// FillMetrics copies the object store's cumulative counters and the
// utilization accounting of every simulated device (per-OSD disks and
// the shared fabric) into a metric registry. Collection is pull-time:
// counters already maintained on the op path are read once, so the
// export cannot perturb a running simulation.
func (c *Cluster) FillMetrics(reg *trace.Registry) {
	reg.Counter("cudele_rados_reads_total", "Object read operations.", float64(c.reads))
	reg.Counter("cudele_rados_writes_total", "Object write operations.", float64(c.writes))
	reg.Counter("cudele_rados_deletes_total", "Object delete operations.", float64(c.deletes))
	reg.Counter("cudele_rados_bytes_read_total", "Bytes read from objects.", float64(c.bytesRead))
	reg.Counter("cudele_rados_bytes_written_total", "Bytes written to objects (billed).", float64(c.bytesWrit))
	reg.Gauge("cudele_rados_objects", "Objects currently stored.", float64(len(c.objects)))

	net := c.net.Snapshot()
	reg.Gauge("cudele_rados_net_utilization", "Mean busy fraction of the shared fabric.", net.Utilization)

	for _, osd := range c.osds {
		disk := osd.Disk.Snapshot()
		reg.Gauge("cudele_rados_osd_disk_utilization", "Mean busy fraction of one OSD's disk channel.",
			disk.Utilization, trace.KV{Key: "osd", Val: strconv.Itoa(osd.ID)})
	}

	// Only with a store attached, so the simulator's export is unchanged.
	// records / commits is the group-commit factor.
	if c.store != nil {
		log := c.store.Stats()
		reg.Counter("cudele_rados_log_records_total", "Mutations appended to the object log.", float64(log.Records))
		reg.Counter("cudele_rados_log_commits_total", "Group commits: one write and Sync of the object log each.", float64(log.Commits))
		reg.Counter("cudele_rados_log_bytes_total", "Bytes appended to the object log.", float64(log.Bytes))
		reg.Counter("cudele_rados_log_checkpoints_total", "Times the object log was rewritten as an image of the live objects.", float64(log.Checkpoints))
		reg.Gauge("cudele_rados_log_size_bytes", "Current length of the object log.", float64(log.LogSize))
	}
}
