package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"cudele/internal/model"
	"cudele/internal/trace"
)

// measuredOf reduces repetitions to the raw end-to-end metrics. Rates,
// costs per op and set-up time are medians over repetitions; the latency
// percentiles are taken over the samples of every repetition pooled, so
// the 99th has thousands of samples beyond it; peak RSS is the process
// maximum.
func measuredOf(reps []*repResult) (raw *metricSet, attempted, failed int64) {
	raw = newMetricSet(measured)
	var setup, rate, cpu, alloc []float64
	var lat [][]int64
	for _, r := range reps {
		ops := float64(r.ops)
		setup = append(setup, r.setup.Seconds())
		rate = append(rate, ops/r.win.wall.Seconds())
		cpu = append(cpu, float64(r.win.cpu.Microseconds())/ops)
		alloc = append(alloc, float64(r.win.alloc)/ops)
		lat = append(lat, r.lat)
		attempted += r.attempted
		failed += r.failed
	}
	raw.set("setup_s", median(setup))
	raw.set("ops_per_s", median(rate))
	raw.set("cpu_us_per_op", median(cpu))
	raw.set("op_p50_us", pooledPercentileNS(lat, 0.50)/1e3)
	raw.set("op_p99_us", pooledPercentileNS(lat, 0.99)/1e3)
	raw.set("alloc_b_per_op", median(alloc))
	raw.set("peak_rss_mb", peakRSSMB())
	raw.set("fail_frac", float64(failed)/float64(attempted))
	return raw, attempted, failed
}

// runTotals sums what the attribution and the count rows need over a set
// of repetitions.
type runTotals struct {
	ops      int64
	cpuS     float64
	counts   counts
	byKind   [numOpKinds]int64
	extra    *extraTimings
	virtualS float64
}

func totalsOf(reps []*repResult) runTotals {
	t := runTotals{extra: newExtraTimings()}
	for _, r := range reps {
		t.ops += r.ops
		t.cpuS += r.win.cpu.Seconds()
		t.counts.add(r.counts)
		t.extra.add(r.extra)
		t.virtualS += r.virtualS
		for k, n := range r.byKind {
			t.byKind[k] += n
		}
	}
	return t
}

// perLayerOf fills the workload-dependent per-layer rows: counts and
// per-cell rates from the untraced repetitions, per-call medians and
// mechanism costs from the traced ones. Probe rows are already in out.
func perLayerOf(out *metricSet, u runTotals, um, tm *metricSet, untraced, traced []*repResult) {
	out.set("sim.virtual_s", u.virtualS)
	out.set("rados.writes", float64(u.counts.RadosWrites))
	out.set("rados.bytes_written", float64(u.counts.RadosBytes))
	out.set("mds.requests", float64(u.counts.MDSRequests))
	out.set("mds.cap_revokes", float64(u.counts.MDSCapRevokes))
	out.set("mds.journal_segments", float64(u.counts.MDSSegments))
	out.set("mds.merged_events", float64(u.counts.MDSMerged))
	out.set("client.rpcs_per_op", float64(u.counts.ClientRPCs)/float64(u.ops))
	if u.extra.userBytes > 0 {
		out.set("rados.disk_b_per_user_b", float64(u.extra.diskBytes)/float64(u.extra.userBytes))
	}
	for _, cell := range cellNames {
		var rates []float64
		for _, r := range untraced {
			if c, ok := r.cells[cell]; ok {
				rates = append(rates, float64(c.ops)/c.wall.Seconds())
			}
		}
		out.set("cell."+cell+".ops_per_s", median(rates))
	}

	// Median duration per call kind over every traced call.
	byKind := make([][]float64, numOpKinds)
	for _, r := range traced {
		for _, t := range r.tasks {
			for _, s := range t.spans {
				byKind[s.kind] = append(byKind[s.kind], float64(s.dur))
			}
		}
	}
	callMetric := map[opKind]struct {
		name string
		unit float64
	}{
		opCreate: {"client.create_us", 1e3}, opUnlink: {"client.unlink_us", 1e3}, opRename: {"client.rename_us", 1e3},
		opLookup: {"client.lookup_us", 1e3}, opStat: {"client.stat_us", 1e3}, opResolve: {"client.resolve_us", 1e3},
		opReadDir: {"client.readdir_us", 1e3}, opLocalCreate: {"client.local_create_ns", 1},
	}
	for kind, m := range callMetric {
		out.set(m.name, median(byKind[kind])/m.unit)
	}
	x := totalsOf(traced).extra
	ratio := func(name string, num, den int64, scale float64) {
		if den > 0 {
			out.set(name, float64(num)/float64(den)*scale)
		}
	}
	ratio("client.merge_weak_ns_per_event", x.mergeNS["weak"], x.mergeEvents["weak"], 1)
	ratio("client.merge_spec_ns_per_event", x.mergeNS["speculative"], x.mergeEvents["speculative"], 1)
	ratio("client.merge_se_ns_per_event", x.mergeNS["strong-eventual"], x.mergeEvents["strong-eventual"], 1)
	const nsPerByteToMsPerMB = float64(1<<20) / 1e6
	ratio("client.local_persist_ms_per_mb", x.localPersistNS, x.localPersistBytes, nsPerByteToMsPerMB)
	ratio("client.global_persist_ms_per_mb", x.globalPersistNS, x.globalPersistBytes, nsPerByteToMsPerMB)
	ratio("client.fetch_global_ms_per_mb", x.fetchNS, x.fetchBytes, nsPerByteToMsPerMB)
	ratio("client.nonvolatile_us_per_event", x.nonvolatileNS, x.nonvolatileEvents, 1e-3)

	out.set("bench.trace_overhead_frac", 1-tm.vals["ops_per_s"]/um.vals["ops_per_s"])
}

// attrRow is one line of the attribution table: how many times a layer
// was used (from counters), what one use costs (from a probe), and the
// product.
type attrRow struct {
	layer  string
	count  float64
	costNS float64 // unit cost in ns
	source string  // the probe metric(s) the cost comes from
}

// attribution models where a workload's measured CPU seconds should have
// gone, layer by layer, from counts x probe costs. The model is
// deliberately simple and its remainder is reported as
// bench.unexplained_frac, not thresholded: a layer change that moves a
// probe should move its row, and a large remainder says the probes do not
// yet cover what the workload does.
func attribution(workload string, pl *metricSet, u runTotals) []attrRow {
	v := func(name string) float64 { return pl.vals[name] }
	c := u.counts
	rpcs := float64(c.ClientRPCs)
	reqs := float64(c.MDSRequests)
	// Handler cost without the wire: Submit on the simulator minus the
	// simulator's own empty Call.
	handler := func(submit string) float64 { return v(submit)*1e3 - v("transport.call_sim_ns") }
	// host_cfg leaves one 0-or-1 ns service-time Sleep per request: half
	// yield, half the shortest timer sleep.
	serviceSleep := (v("realrt.yield_ns") + v("realrt.sleep_min_us")*1e3) / 2
	localOps := float64(u.byKind[opLocalCreate] + u.byKind[opLocalMkdir] + u.byKind[opLocalUnlink])
	merges := func() []attrRow {
		return []attrRow{
			{"mds blind apply", float64(u.extra.mergeEvents["weak"]), v("mds.apply_ns_per_event"), "mds.apply_ns_per_event"},
			{"mds validate+apply", float64(u.extra.mergeEvents["speculative"]), v("mds.validate_ns_per_event"), "mds.validate_ns_per_event"},
			{"mds converge", float64(u.extra.mergeEvents["strong-eventual"]), v("mds.converge_ns_per_event"), "mds.converge_ns_per_event"},
		}
	}
	local := func() []attrRow {
		return []attrRow{
			{"client image insert + journal append", localOps, v("namespace.create_ns") + v("journal.append_ns"), "namespace.create_ns + journal.append_ns"},
			{"realrt 1 ns append sleep", localOps, v("realrt.sleep_min_us") * 1e3, "realrt.sleep_min_us"},
		}
	}
	switch workload {
	case "sim_storm":
		return []attrRow{
			{"mds dispatch + journal record (sim)", reqs, v("mds.submit_create_stream_us") * 1e3, "mds.submit_create_stream_us"},
			{"client overhead sleep (sim switch)", rpcs, v("sim.switch_ns"), "sim.switch_ns"},
			{"journal segment encode", float64(c.MDSSegments) * float64(model.Default().SegmentEvents), v("journal.encode_ns_per_event"), "journal.encode_ns_per_event"},
			{"rados object write (memory)", float64(c.RadosWrites), v("rados.write_mem_us") * 1e3, "rados.write_mem_us"},
		}
	case "real_rpc_write":
		return []attrRow{
			{"wire + realrt spawn/hand-off", rpcs, v("transport.call_real_us") * 1e3, "transport.call_real_us"},
			{"mds dispatch + namespace mutate", reqs, handler("mds.submit_create_us"), "mds.submit_create_us - transport.call_sim_ns"},
			{"realrt service-time sleep", reqs, serviceSleep, "(realrt.yield_ns + realrt.sleep_min_us)/2"},
		}
	case "real_rpc_read":
		readdirs := float64(u.byKind[opReadDir])
		return []attrRow{
			{"wire + realrt spawn/hand-off", rpcs, v("transport.call_real_us") * 1e3, "transport.call_real_us"},
			{"mds dispatch + point read", reqs - readdirs, handler("mds.submit_lookup_us"), "mds.submit_lookup_us - transport.call_sim_ns"},
			{"mds dispatch + listing", readdirs, handler("mds.submit_readdir_us"), "mds.submit_readdir_us - transport.call_sim_ns"},
			{"realrt service-time sleep", reqs, serviceSleep, "(realrt.yield_ns + realrt.sleep_min_us)/2"},
		}
	case "real_decoupled":
		return append(local(), merges()...)
	case "real_io":
		rows := []attrRow{
			{"wire + realrt spawn/hand-off", rpcs, v("transport.call_real_us") * 1e3, "transport.call_real_us"},
			{"loopback TCP round trips (wall: mostly waiting)", 2 * rpcs, v("transport.loopback_rtt_us") * 1e3, "transport.loopback_rtt_us"},
			{"mds dispatch + journal record", reqs, handler("mds.submit_create_stream_us"), "mds.submit_create_stream_us - transport.call_sim_ns"},
			{"FileStore write-fsync-rename-fsync (wall: mostly waiting)", float64(c.RadosWrites), v("rados.put_4k_us") * 1e3, "rados.put_4k_us"},
		}
		rows = append(rows, local()...)
		return append(rows, merges()...)
	}
	return nil
}

// printAttribution prints the table and returns bench.unexplained_frac.
func printAttribution(w io.Writer, workload string, rows []attrRow, cpuS float64) float64 {
	fmt.Fprintf(w, "\nattribution of %s (%.3f measured CPU seconds, untraced repetitions):\n", workload, cpuS)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tcount\tunit cost (ns)\tcount x cost (s)\tshare of CPU\tcost from")
	var explained float64
	for _, r := range rows {
		s := r.count * r.costNS / 1e9
		explained += s
		fmt.Fprintf(tw, "%s\t%.0f\t%.1f\t%.3f\t%.1f%%\t%s\n", r.layer, r.count, r.costNS, s, 100*s/cpuS, r.source)
	}
	unexplained := 1 - explained/cpuS
	fmt.Fprintf(tw, "unexplained\t\t\t%.3f\t%.1f%%\tbench.unexplained_frac\n", cpuS-explained, 100*unexplained)
	tw.Flush()
	return unexplained
}

// printSelfTimes prints, per span name, how many spans there were and how
// much of their time was their own (span minus children).
func printSelfTimes(w io.Writer, traced []*repResult) {
	type agg struct {
		n           int64
		total, self int64
	}
	byName := map[string]*agg{}
	get := func(name string) *agg {
		a := byName[name]
		if a == nil {
			a = &agg{}
			byName[name] = a
		}
		return a
	}
	for _, r := range traced {
		child := make([]int64, len(r.phases))
		for _, ph := range r.phases {
			if ph.parent >= 0 {
				child[ph.parent] += ph.end - ph.start
			}
		}
		for _, t := range r.tasks {
			var calls int64
			for _, s := range t.spans {
				a := get(opKindNames[s.kind])
				a.n++
				a.total += int64(s.dur)
				a.self += int64(s.dur)
				calls += int64(s.dur)
			}
			if t.parent >= 0 {
				child[t.parent] += calls
			}
		}
		for i, ph := range r.phases {
			a := get(ph.name)
			a.n++
			a.total += ph.end - ph.start
			a.self += ph.end - ph.start - child[i]
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].total > byName[names[j]].total })
	fmt.Fprintln(w, "\nspans of the traced repetitions (self = span minus its children; parallel children can exceed their parent):")
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "span\tcount\ttotal (s)\tself (s)")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\n", n, a.n, float64(a.total)/1e9, float64(a.self)/1e9)
	}
	tw.Flush()
}

// chromeCallsPerTask bounds how many call spans of one client task of one
// repetition are exported: a viewer cannot load millions of events, and
// every span still feeds the medians and the self-time table.
const chromeCallsPerTask = 2000

// writeChrome exports the traced repetitions as Chrome trace-event JSON
// through internal/trace. Every span carries its workload, repetition,
// an id and its parent's id as args.
func writeChrome(path, workload string, traced []*repResult) (int, error) {
	rec := trace.New()
	for _, r := range traced {
		rep := strconv.Itoa(r.rep)
		id := func(i int) string { return "r" + rep + ".p" + strconv.Itoa(i) }
		common := func(self, parent string) []trace.KV {
			return []trace.KV{{Key: "workload", Val: workload}, {Key: "rep", Val: rep}, {Key: "id", Val: self}, {Key: "parent", Val: parent}}
		}
		for i, ph := range r.phases {
			parent := ""
			if ph.parent >= 0 {
				parent = id(ph.parent)
			}
			rec.Add(ph.start, ph.end, ph.track, "bench", ph.name, common(id(i), parent)...)
		}
		for ti, t := range r.tasks {
			parent := ""
			if t.parent >= 0 {
				parent = id(t.parent)
			}
			n := len(t.spans)
			if n > chromeCallsPerTask {
				n = chromeCallsPerTask
			}
			for si, s := range t.spans[:n] {
				self := "r" + rep + ".t" + strconv.Itoa(ti) + ".c" + strconv.Itoa(si)
				rec.Add(s.start, s.start+int64(s.dur), t.name, "client", opKindNames[s.kind], common(self, parent)...)
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return 0, err
	}
	return rec.Len(), f.Close()
}

// printMeasured prints what an untraced run measured as it is reported,
// the times calibrated to the machine's speed, beside the raw
// measurements they were scaled from.
func printMeasured(w io.Writer, title string, m, raw *metricSet, cal *calibrator) {
	fmt.Fprintf(w, "\n%s:\n", title)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\treported\tunit\tas measured")
	for _, d := range measured {
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\n", d.Name, formatValue(m.vals[d.Name]), d.Unit, formatValue(raw.vals[d.Name]))
	}
	tw.Flush()
	fmt.Fprintf(w, "  machine speed %s (median of %d calibration samples; kernels took %.0f, %.0f and %.0f us; times are reported as measured x speed, the rate as measured / speed)\n",
		formatValue(cal.speed()), len(cal.samples), median(cal.took[0]), median(cal.took[1]), median(cal.took[2]))
}

// printMetrics prints one metric list in its declared order.
func printMetrics(w io.Writer, title string, defs []metricDef, m *metricSet) {
	fmt.Fprintf(w, "\n%s:\n", title)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, d := range defs {
		fmt.Fprintf(tw, "  %s\t%s\t%s\n", d.Name, formatValue(m.vals[d.Name]), d.Unit)
	}
	tw.Flush()
}

// formatValue keeps every measured digit that matters without printing
// float noise.
func formatValue(v float64) string {
	s := strconv.FormatFloat(v, 'f', 6, 64)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	}
	return s
}
