package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"

	"cudele/internal/trace"
)

// Source is what the admin endpoint scrapes: a live cluster (or the
// most recently finished one). Metrics must return a freshly collected
// registry each call — the endpoint is refreshable mid-run — and Heat
// the report over the current decayed heat snapshot (the zero report
// when heat accounting is off).
type Source interface {
	Metrics() (*trace.Registry, error)
	Heat() (HeatReport, error)
}

// Admin is the real-backend HTTP admin listener. It serves:
//
//	/healthz       liveness ("ok" once the listener is up)
//	/metrics       the Prometheus text registry, collected per scrape
//	/heat          the JSON heat map per subtree x rank (HeatReport)
//	/debug/pprof/  net/http/pprof for CPU and heap profiles
//
// The source is swappable so one listener can outlive the clusters it
// observes (a bench process runs many back to back); with no source
// installed the data endpoints answer 503 while /healthz stays 200.
type Admin struct {
	ln  net.Listener
	srv *http.Server
	src atomic.Value // of adminSource
}

// adminSource wraps a Source so atomic.Value always stores one concrete
// type (it rejects differing dynamic types).
type adminSource struct{ s Source }

// NewAdmin binds addr (":0" picks a free port) and starts serving. The
// returned Admin reports the bound address via Addr; install a Source
// with SetSource and shut the listener down with Close.
func NewAdmin(addr string) (*Admin, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	a := &Admin{ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/heat", a.handleHeat)
	// pprof on the private mux, not http.DefaultServeMux, so embedding
	// processes never leak profiling handlers onto other listeners.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a.srv = &http.Server{Handler: mux}
	go a.srv.Serve(ln)
	return a, nil
}

// Addr returns the bound listen address (host:port).
func (a *Admin) Addr() string { return a.ln.Addr().String() }

// SetSource installs (or replaces) the scrape source. Safe to call
// while requests are in flight.
func (a *Admin) SetSource(s Source) { a.src.Store(adminSource{s: s}) }

// source returns the current source, nil when none is installed.
func (a *Admin) source() Source {
	v := a.src.Load()
	if v == nil {
		return nil
	}
	return v.(adminSource).s
}

// Close shuts the listener down.
func (a *Admin) Close() error { return a.srv.Close() }

func (a *Admin) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (a *Admin) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	src := a.source()
	if src == nil {
		http.Error(w, "no active run", http.StatusServiceUnavailable)
		return
	}
	reg, err := src.Metrics()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WritePrometheus(w)
}

func (a *Admin) handleHeat(w http.ResponseWriter, _ *http.Request) {
	src := a.source()
	if src == nil {
		http.Error(w, "no active run", http.StatusServiceUnavailable)
		return
	}
	rep, err := src.Heat()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if rep.Cells == nil {
		rep.Cells = []HeatCell{}
	}
	if rep.Ranks == nil {
		rep.Ranks = []RankLoad{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
}
