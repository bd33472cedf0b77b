package monitor

import (
	"cudele/internal/trace"
)

// FillMetrics copies the monitor's cluster-map state into a metric
// registry: the current epoch and the number of registered (decoupled)
// subtrees.
func (m *Monitor) FillMetrics(reg *trace.Registry) {
	reg.Counter("cudele_mon_epoch", "Cluster-map epoch, bumped on every change.", float64(m.epoch))
	reg.Gauge("cudele_mon_subtrees", "Registered decoupled subtrees.", float64(len(m.registered())))
}
