package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"cudele/internal/trace"
)

// Source is what the admin endpoint scrapes: the cluster it serves.
// Metrics must return a freshly collected registry each call — the
// endpoint is refreshable mid-run — and Heat the report over the current
// decayed heat snapshot (the zero report when heat accounting is off).
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
type Admin struct {
	ln  net.Listener
	srv *http.Server
	src Source
}

// NewAdmin binds addr (":0" picks a free port) and starts serving src.
// The returned Admin reports the bound address via Addr; shut the
// listener down with Close.
func NewAdmin(addr string, src Source) (*Admin, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	a := &Admin{ln: ln, src: src}
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

// Close shuts the listener down.
func (a *Admin) Close() error { return a.srv.Close() }

func (a *Admin) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (a *Admin) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	reg, err := a.src.Metrics()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WritePrometheus(w)
}

func (a *Admin) handleHeat(w http.ResponseWriter, _ *http.Request) {
	rep, err := a.src.Heat()
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
