package cudele

import (
	"fmt"
	"sort"
	"time"

	"cudele/internal/obs"
	"cudele/internal/trace"
)

// Recorder collects spans and instants on simulated time; see
// internal/trace.
type Recorder = trace.Recorder

// Registry is a metric registry exportable in Prometheus text format;
// see internal/trace.
type Registry = trace.Registry

// Heat is the per-subtree, per-rank load accountant; see internal/obs.
type Heat = obs.Heat

// Flight is the chaos flight recorder; see internal/obs.
type Flight = obs.Flight

// Admin is the real-backend HTTP admin listener; see internal/obs.
type Admin = obs.Admin

// EnableTracing attaches a trace recorder to the cluster's runtime and
// returns it. Every RPC, journal operation, RADOS round trip, and
// capability revocation records a span on the shared virtual clock.
// Tracing never charges virtual time and never consumes randomness, so
// a traced run produces byte-identical results to an untraced one.
// Call before Run; call at most once per cluster.
func (cl *Cluster) EnableTracing() *Recorder {
	rec := trace.New()
	cl.rt.SetTracer(rec)
	return rec
}

// Tracer returns the cluster's trace recorder, nil when tracing is off.
func (cl *Cluster) Tracer() *Recorder { return cl.rt.Tracer() }

// CollectMetrics gathers every daemon's counters, histograms, and
// device-utilization accounting into a fresh registry: all MDS ranks,
// the object store (per-OSD disks, fabric), the monitor, and every
// client in name order. Collection is pull-time — run it after the
// simulation (or between runs); it reads existing counters and cannot
// perturb virtual time.
func (cl *Cluster) CollectMetrics() *Registry {
	cl.setup.Lock() // a scrape may run while set-up code adds a client
	defer cl.setup.Unlock()
	reg := trace.NewRegistry()
	cl.meta.FillMetrics(reg)
	cl.objects.FillMetrics(reg)
	cl.mon.FillMetrics(reg)
	names := make([]string, 0, len(cl.clients))
	for name := range cl.clients {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cl.clients[name].FillMetrics(reg)
	}
	// Last, and only a runtime with a real wire has any: the simulator's
	// export keeps its order.
	if rt, ok := cl.rt.(interface{ FillMetrics(*trace.Registry) }); ok {
		rt.FillMetrics(reg)
	}
	return reg
}

// EnableHeat attaches a per-subtree heat accountant to every metadata
// rank and returns it. Load (reads/writes/merges, bytes, queue wait) is
// recorded per placed subtree per rank with exponential decay at the
// given half-life (non-positive means obs.DefaultHalfLife). Decay runs
// on runtime time — virtual on the simulator — and, like tracing, heat
// accounting charges no time and consumes no randomness, so an
// accounted sim run stays byte-identical to an unaccounted one. Call
// before Run; call at most once per cluster.
func (cl *Cluster) EnableHeat(halfLife time.Duration) *Heat {
	cl.setup.Lock() // a /heat scrape reads cl.heat
	defer cl.setup.Unlock()
	h := obs.NewHeat(halfLife)
	cl.heat = h
	cl.meta.SetHeat(h)
	return h
}

// Heat returns the cluster's heat accountant, nil when accounting is off.
func (cl *Cluster) Heat() *Heat { return cl.heat }

// HeatReport snapshots the heat accountant at the current runtime time
// and aggregates it into per-rank loads and the imbalance factor. The
// zero report is returned when heat accounting is off.
func (cl *Cluster) HeatReport() obs.HeatReport {
	return obs.NewReport(cl.heat.Snapshot(int64(cl.rt.Now())))
}

// EnableFlightRecorder attaches a chaos flight recorder to the cluster's
// runtime and returns it: every daemon keeps a fixed-size ring of its
// most recent protocol events (perDaemon entries; non-positive means
// obs.DefaultFlightEvents) so a chaos-oracle failure can dump the last-N
// events before the violation. Free when off (one nil check per record
// site); recording never charges time or consumes randomness. Call
// before Run; call at most once per cluster.
func (cl *Cluster) EnableFlightRecorder(perDaemon int) *Flight {
	f := obs.NewFlight(perDaemon)
	cl.rt.SetFlight(f)
	return f
}

// Flight returns the cluster's flight recorder, nil when recording is
// off.
func (cl *Cluster) Flight() *Flight { return cl.rt.Flight() }

// adminSource adapts a Cluster to obs.Source. Scrapes run under
// Runtime.Exclusive, so an HTTP handler goroutine reads cluster state
// with no task inside any daemon — valid only on the real backend, whose
// lock domains external callers may take.
type adminSource struct{ cl *Cluster }

// Metrics implements obs.Source: a fresh pull-time collection per scrape.
func (s adminSource) Metrics() (*trace.Registry, error) {
	var reg *trace.Registry
	s.cl.rt.Exclusive(func() { reg = s.cl.CollectMetrics() })
	return reg, nil
}

// Heat implements obs.Source: the current decayed heat snapshot, nil
// when heat accounting is off.
func (s adminSource) Heat() ([]obs.HeatCell, error) {
	var cells []obs.HeatCell
	s.cl.rt.Exclusive(func() {
		s.cl.setup.Lock()
		defer s.cl.setup.Unlock()
		cells = s.cl.heat.Snapshot(int64(s.cl.rt.Now()))
	})
	return cells, nil
}

// AdminSource returns the cluster as an admin-endpoint scrape source,
// for installing into an obs.Admin that outlives individual clusters.
// Real backend only: scrapes serialize against running tasks via the
// lock domains, which the simulator cannot offer concurrent callers.
func (cl *Cluster) AdminSource() obs.Source {
	if cl.Backend() != BackendReal {
		panic("cudele: AdminSource requires BackendReal")
	}
	return adminSource{cl: cl}
}

// ServeAdmin binds an HTTP admin listener on addr (":0" picks a free
// port) serving /healthz, /metrics, /heat, and /debug/pprof/, sourced
// from this cluster. Real backend only. Close the returned Admin when
// done.
func (cl *Cluster) ServeAdmin(addr string) (*Admin, error) {
	if cl.Backend() != BackendReal {
		return nil, fmt.Errorf("cudele: ServeAdmin requires BackendReal")
	}
	a, err := obs.NewAdmin(addr)
	if err != nil {
		return nil, err
	}
	a.SetSource(cl.AdminSource())
	return a, nil
}
