package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cudele"
	"cudele/internal/journal"
	"cudele/internal/mds"
	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/obs"
	"cudele/internal/policy"
	"cudele/internal/rados"
	"cudele/internal/realrt"
	"cudele/internal/runtime"
	"cudele/internal/sim"
	"cudele/internal/stats"
	"cudele/internal/trace"
	"cudele/internal/transport"
)

// The per-layer probes: single-threaded loops in this package around one
// public function of one layer, timed from outside. Each probe reports the
// median over probeBatches batches. Nothing inside the program is
// instrumented, and the PR-3 recorder stays off.

const probeBatches = 5

// probeSink keeps results alive so the compiler cannot drop a probed call.
var probeSink any

// probeSet runs probes and collects their values by metric name.
type probeSet struct {
	out    *metricSet
	cfg    model.Config // host_cfg
	tmpDir string
	scale  float64 // 1 for reported numbers; tests shrink every loop
	err    error
}

// n scales a probe's full iteration count.
func (ps *probeSet) n(full int) int {
	return max(1, int(float64(full)*ps.scale))
}

// value reports, under name, the median over probeBatches of what batch
// returns.
func (ps *probeSet) value(name string, batch func() (float64, error)) {
	if ps.err != nil {
		return
	}
	vals := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		v, err := batch()
		if err != nil {
			ps.err = fmt.Errorf("probe %s: %w", name, err)
			return
		}
		vals = append(vals, v)
	}
	ps.out.set(name, median(vals))
}

// per reports a cost per item: batch returns how long its timed region
// took and how many items it covered, and unit scales ns per item (1 for
// ns, 1e3 for us, 1e6 for ms; ms per thousand items is ns per item over
// 1e3).
func (ps *probeSet) per(name string, unit float64, batch func() (time.Duration, int, error)) {
	ps.value(name, func() (float64, error) {
		d, n, err := batch()
		return float64(d) / float64(n) / unit, err
	})
}

// loop times n iterations of fn.
func loop(n int, fn func(i int)) (time.Duration, int, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0), n, nil
}

// inSim runs fn as the only process of a fresh simulator and returns the
// duration fn reports.
func inSim(fn func(p *sim.Proc) time.Duration) time.Duration {
	eng := sim.NewEngine(1)
	var d time.Duration
	eng.Go("probe", func(p *sim.Proc) { d = fn(p) })
	eng.RunAll()
	eng.Shutdown()
	return d
}

// inReal runs fn as a task of a fresh real-backend engine.
func inReal(fn func(e *realrt.Engine, t runtime.Task) time.Duration) time.Duration {
	e := realrt.New(1)
	defer e.Shutdown()
	var d time.Duration
	e.Spawn("probe", func(t runtime.Task) { d = fn(e, t) })
	e.RunAll()
	return d
}

// probeEvents makes n create events under parent with client-assigned
// inodes, as a decoupled client's journal holds them.
func probeEvents(n int, parent uint64, inoBase uint64) []*journal.Event {
	evs := make([]*journal.Event, n)
	for i := range evs {
		evs[i] = &journal.Event{
			Type: journal.EvCreate, Client: "probe", Ino: inoBase + uint64(i),
			Parent: parent, Name: fmt.Sprintf("p%07d", i), Mode: 0644, Mtime: int64(i + 1),
		}
	}
	return evs
}

func probeNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%07d", prefix, i)
	}
	return out
}

func noopHandler(runtime.Task, any) any { return nil }

// runProbes measures every probe row of the per-layer list.
func runProbes(out *metricSet, cfg model.Config, tmpDir string, scale float64) error {
	ps := &probeSet{out: out, cfg: cfg, tmpDir: tmpDir, scale: scale}
	ps.bench()
	ps.sim()
	ps.realrt()
	ps.transport()
	ps.journal()
	ps.namespace()
	ps.rados()
	ps.mds()
	ps.monitor()
	ps.small()
	return ps.err
}

func (ps *probeSet) bench() {
	ps.per("bench.timer_ns", 1, func() (time.Duration, int, error) {
		var acc time.Duration
		d, n, err := loop(ps.n(200_000), func(int) { t0 := time.Now(); acc += time.Since(t0) })
		probeSink = acc
		return d, n, err
	})
}

func (ps *probeSet) sim() {
	n := ps.n(100_000)
	ps.per("sim.schedule_ns", 1, func() (time.Duration, int, error) {
		eng := sim.NewEngine(1)
		fired := 0
		t0 := time.Now()
		for i := 0; i < n; i++ {
			eng.Schedule(time.Duration(i%977), func() { fired++ })
		}
		eng.RunAll()
		d := time.Since(t0)
		probeSink = fired
		return d, n, nil
	})
	ps.per("sim.switch_ns", 1, func() (time.Duration, int, error) {
		// Two processes alternate: every Sleep hands the engine to the
		// other one.
		eng := sim.NewEngine(1)
		for k := 0; k < 2; k++ {
			eng.Go("pingpong", func(p *sim.Proc) {
				for i := 0; i < n/2; i++ {
					p.Sleep(1)
				}
			})
		}
		t0 := time.Now()
		eng.RunAll()
		d := time.Since(t0)
		eng.Shutdown()
		return d, n, nil
	})
	ps.per("sim.resource_ns", 1, func() (time.Duration, int, error) {
		d := inSim(func(p *sim.Proc) time.Duration {
			r := sim.NewResource(p.Engine(), "probe", 1)
			d, _, _ := loop(n, func(int) { r.Acquire(p); r.Release() })
			return d
		})
		return d, n, nil
	})
}

func (ps *probeSet) realrt() {
	n := ps.n(20_000)
	ps.per("realrt.spawn_us", 1e3, func() (time.Duration, int, error) {
		e := realrt.New(1)
		defer e.Shutdown()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			e.Spawn("probe", func(runtime.Task) {})
		}
		e.RunAll()
		return time.Since(t0), n, nil
	})
	ps.per("realrt.handoff_us", 1e3, func() (time.Duration, int, error) {
		// Two tasks ping-pong over one-shot signals: each round is two
		// Fire -> waiter-resumed hand-offs.
		rounds := n / 2
		e := realrt.New(1)
		defer e.Shutdown()
		ping := make([]runtime.Signal, rounds)
		pong := make([]runtime.Signal, rounds)
		for i := range ping {
			ping[i], pong[i] = e.NewSignal(), e.NewSignal()
		}
		var d time.Duration
		e.Spawn("a", func(t runtime.Task) {
			t0 := time.Now()
			for i := 0; i < rounds; i++ {
				ping[i].Fire(nil)
				pong[i].Wait(t)
			}
			d = time.Since(t0)
		})
		e.Spawn("b", func(t runtime.Task) {
			for i := 0; i < rounds; i++ {
				ping[i].Wait(t)
				pong[i].Fire(nil)
			}
		})
		e.RunAll()
		return d, 2 * rounds, nil
	})
	taskLoop := func(name string, unit float64, iters int, body func(e *realrt.Engine, t runtime.Task)) {
		ps.per(name, unit, func() (time.Duration, int, error) {
			d := inReal(func(e *realrt.Engine, t runtime.Task) time.Duration {
				d, _, _ := loop(iters, func(int) { body(e, t) })
				return d
			})
			return d, iters, nil
		})
	}
	taskLoop("realrt.sleep_min_us", 1e3, ps.n(2_000), func(_ *realrt.Engine, t runtime.Task) { t.Sleep(1) })
	taskLoop("realrt.yield_ns", 1, ps.n(200_000), func(_ *realrt.Engine, t runtime.Task) { t.Sleep(0) })
	taskLoop("realrt.blocking_ns", 1, ps.n(200_000), func(e *realrt.Engine, _ runtime.Task) { e.Blocking(func() {}) })

	// Two independent CPU-bound tasks against one: 2.0 would be perfect
	// scaling, ~1.0 is what a global run lock gives.
	spins := ps.n(3_000_000)
	spin := func() uint64 {
		var x uint64 = 88172645463325252
		for i := 0; i < spins; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		return x
	}
	ps.value("realrt.two_task_speedup", func() (float64, error) {
		run := func(tasks int) time.Duration {
			e := realrt.New(1)
			defer e.Shutdown()
			t0 := time.Now()
			for k := 0; k < tasks; k++ {
				e.Spawn("spin", func(runtime.Task) { probeSink = spin() })
			}
			e.RunAll()
			return time.Since(t0)
		}
		one, two := run(1), run(2)
		return 2 * float64(one) / float64(two), nil
	})
}

func (ps *probeSet) transport() {
	n := ps.n(100_000)
	ps.per("transport.call_sim_ns", 1, func() (time.Duration, int, error) {
		w := transport.NewWire("probe", 0, noopHandler)
		d := inSim(func(p *sim.Proc) time.Duration {
			d, _, _ := loop(n, func(int) { w.Call(p, nil) })
			return d
		})
		return d, n, nil
	})
	ps.per("transport.call_real_us", 1e3, func() (time.Duration, int, error) {
		calls := ps.n(20_000)
		w := transport.NewWire("probe", 0, noopHandler)
		d := inReal(func(_ *realrt.Engine, t runtime.Task) time.Duration {
			d, _, _ := loop(calls, func(int) { w.Call(t, nil) })
			return d
		})
		return d, calls, nil
	})
	ps.per("transport.chain8_ns", 1, func() (time.Duration, int, error) {
		pass := func(next transport.Handler) transport.Handler {
			return func(p runtime.Task, msg any) any { return next(p, msg) }
		}
		bare := transport.NewWire("bare", 0, noopHandler)
		chained := transport.NewWire("chained", 0, transport.Chain(noopHandler,
			pass, pass, pass, pass, pass, pass, pass, pass))
		var extra time.Duration
		inSim(func(p *sim.Proc) time.Duration {
			d0, _, _ := loop(n, func(int) { bare.Post(p, nil) })
			d8, _, _ := loop(n, func(int) { chained.Post(p, nil) })
			extra = d8 - d0
			return 0
		})
		if extra < 0 {
			extra = 0
		}
		return extra, n, nil
	})
	ps.per("transport.route_ns", 1, func() (time.Duration, int, error) {
		tab := transport.NewTable()
		paths := make([]string, 64)
		for i := range paths {
			paths[i] = fmt.Sprintf("/jobs/j%02d", i)
			tab.Place(paths[i], i%4)
		}
		for i := range paths {
			paths[i] += "/sub/file"
		}
		acc := 0
		d, cnt, err := loop(ps.n(20_000), func(i int) { acc += tab.RankFor(paths[i%64]) })
		probeSink = acc
		return d, cnt, err
	})
	ps.per("transport.loopback_rtt_us", 1e3, func() (time.Duration, int, error) {
		e := realrt.New(1)
		defer e.Shutdown()
		if err := e.EnableLoopback(); err != nil {
			return 0, 0, err
		}
		if _, err := e.NetRoundTrip(); err != nil { // dial outside the timed loop
			return 0, 0, err
		}
		var rerr error
		d, cnt, _ := loop(ps.n(5_000), func(int) {
			if _, err := e.NetRoundTrip(); err != nil {
				rerr = err
			}
		})
		return d, cnt, rerr
	})
	ps.per("transport.window_ns", 1, func() (time.Duration, int, error) {
		w := transport.NewWindow(4)
		payload := &struct{}{}
		return loop(n, func(i int) {
			w.TryPush(runtime.Time(i), payload)
			w.Pop(runtime.Time(i))
		})
	})
}

func (ps *probeSet) journal() {
	n := ps.n(16_384)
	evs := probeEvents(n, 1, 1<<40)
	buf, err := journal.Encode(evs)
	if err != nil && ps.err == nil {
		ps.err = err
		return
	}
	ps.out.set("journal.encoded_b_per_event", float64(len(buf)-journal.MagicLen)/float64(n))
	ps.per("journal.encode_ns_per_event", 1, func() (time.Duration, int, error) {
		t0 := time.Now()
		b, err := journal.Encode(evs)
		probeSink = b
		return time.Since(t0), n, err
	})
	ps.per("journal.decode_ns_per_event", 1, func() (time.Duration, int, error) {
		t0 := time.Now()
		out, err := journal.Decode(buf)
		probeSink = out
		return time.Since(t0), n, err
	})
	ps.per("journal.append_ns", 1, func() (time.Duration, int, error) {
		j := journal.New(1024)
		var aerr error
		d, cnt, _ := loop(n, func(i int) {
			if _, err := j.Append(evs[i]); err != nil {
				aerr = err
			}
		})
		return d, cnt, aerr
	})
	ps.per("journal.cursor_ns_per_event", 1, func() (time.Duration, int, error) {
		j := journal.New(1024)
		for _, ev := range evs {
			if _, err := j.Append(ev); err != nil {
				return 0, 0, err
			}
		}
		seen := 0
		t0 := time.Now()
		cur := j.InlineCursor()
		for run := cur.Next(256); run != nil; run = cur.Next(256) {
			seen += len(run)
		}
		d := time.Since(t0)
		if seen != n {
			return 0, 0, fmt.Errorf("cursor saw %d of %d events", seen, n)
		}
		return d, n, nil
	})
}

func (ps *probeSet) namespace() {
	n := ps.n(50_000)
	names := probeNames("f", max(n, 1000)) // listings and lookups want 1 000 entries at any scale
	attrs := namespace.CreateAttrs{Mode: 0644}
	filled := func(entries int) (*namespace.Store, namespace.Ino, error) {
		st := namespace.NewStore()
		dir, err := st.MkdirAll("/a/b/c", namespace.CreateAttrs{Mode: 0755})
		if err != nil {
			return nil, 0, err
		}
		for _, name := range names[:entries] {
			if _, err := st.Create(dir.Ino, name, attrs); err != nil {
				return nil, 0, err
			}
		}
		return st, dir.Ino, nil
	}
	ps.per("namespace.create_ns", 1, func() (time.Duration, int, error) {
		st, dir, err := filled(0)
		if err != nil {
			return 0, 0, err
		}
		var cerr error
		d, cnt, _ := loop(n, func(i int) {
			if _, err := st.Create(dir, names[i], attrs); err != nil {
				cerr = err
			}
		})
		return d, cnt, cerr
	})
	ps.per("namespace.unlink_ns", 1, func() (time.Duration, int, error) {
		st, dir, err := filled(n)
		if err != nil {
			return 0, 0, err
		}
		var uerr error
		d, cnt, _ := loop(n, func(i int) {
			if err := st.Unlink(dir, names[i]); err != nil {
				uerr = err
			}
		})
		return d, cnt, uerr
	})
	st1k, dir1k, err := filled(1000)
	if err != nil && ps.err == nil {
		ps.err = err
		return
	}
	paths := make([]string, 1000)
	for i := range paths {
		paths[i] = "/a/b/c/" + names[i]
	}
	ps.per("namespace.resolve_ns", 1, func() (time.Duration, int, error) {
		var rerr error
		d, cnt, _ := loop(n, func(i int) {
			if _, err := st1k.Resolve(paths[i%1000]); err != nil {
				rerr = err
			}
		})
		return d, cnt, rerr
	})
	ps.per("namespace.readdir_us", 1e3, func() (time.Duration, int, error) {
		var rerr error
		d, cnt, _ := loop(ps.n(200), func(int) {
			got, err := st1k.ReadDir(dir1k)
			if err != nil || len(got) != 1000 {
				rerr = fmt.Errorf("readdir: %d entries, %v", len(got), err)
			}
		})
		return d, cnt, rerr
	})
	ps.per("namespace.persist_ns_per_dentry", 1, func() (time.Duration, int, error) {
		var perr error
		d, cnt, _ := loop(ps.n(50), func(int) {
			b, err := st1k.EncodeDir(dir1k)
			if err != nil {
				perr = err
			}
			probeSink = b
		})
		return d, cnt * 1000, perr
	})
	ps.per("namespace.check_ns_per_inode", 1, func() (time.Duration, int, error) {
		st, _, err := filled(n)
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		probs := st.Check()
		d := time.Since(t0)
		if len(probs) != 0 {
			return 0, 0, fmt.Errorf("check: %d problems on a healthy store", len(probs))
		}
		return d, st.Len(), nil
	})
	ps.per("namespace.replay_ns_per_event", 1, func() (time.Duration, int, error) {
		st, dir, err := filled(0)
		if err != nil {
			return 0, 0, err
		}
		evs := probeEvents(n, uint64(dir), 1<<40)
		t0 := time.Now()
		applied, err := journal.Replay(evs, st)
		return time.Since(t0), applied, err
	})
	ps.per("namespace.semerge_ns_per_event", 1, func() (time.Duration, int, error) {
		st, dir, err := filled(0)
		if err != nil {
			return 0, 0, err
		}
		evs := probeEvents(n, uint64(dir), 1<<40)
		t0 := time.Now()
		applied, err := journal.Replay(evs, namespace.NewSEMerger(st))
		return time.Since(t0), applied, err
	})
}

func (ps *probeSet) rados() {
	blob := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 131)
		}
		return b
	}
	b4k, b4m, b16m := blob(4<<10), blob(4<<20), blob(16<<20)
	oid := func(i int) rados.ObjectID { return rados.ObjectID{Pool: "probe", Name: fmt.Sprintf("o%05d", i)} }
	freshStore := func(name string) (*rados.FileStore, func(), error) {
		dir, err := os.MkdirTemp(ps.tmpDir, name+"-")
		if err != nil {
			return nil, nil, err
		}
		fs, err := rados.OpenFileStore(filepath.Join(dir, "objects"))
		return fs, func() { os.RemoveAll(dir) }, err
	}

	ps.per("rados.write_mem_us", 1e3, func() (time.Duration, int, error) {
		n := ps.n(5_000)
		var werr error
		d := inReal(func(e *realrt.Engine, t runtime.Task) time.Duration {
			c := rados.New(e, ps.cfg)
			d, _, _ := loop(n, func(i int) {
				if err := c.Write(t, oid(i%64), b4k); err != nil {
					werr = err
				}
			})
			return d
		})
		return d, n, werr
	})
	ps.per("rados.put_4k_us", 1e3, func() (time.Duration, int, error) {
		fs, cleanup, err := freshStore("put4k")
		if err != nil {
			return 0, 0, err
		}
		defer cleanup()
		var perr error
		d, cnt, _ := loop(ps.n(40), func(i int) {
			if err := fs.Put(oid(i), b4k, nil); err != nil {
				perr = err
			}
		})
		return d, cnt, perr
	})
	ps.per("rados.put_4m_ms", 1e6, func() (time.Duration, int, error) {
		fs, cleanup, err := freshStore("put4m")
		if err != nil {
			return 0, 0, err
		}
		defer cleanup()
		var perr error
		d, cnt, _ := loop(ps.n(2), func(i int) {
			if err := fs.Put(oid(i), b4m, nil); err != nil {
				perr = err
			}
		})
		return d, cnt, perr
	})
	// One store of small objects, written once, loaded probeBatches times.
	loadObjs := ps.n(100)
	if ps.err == nil {
		fs, cleanup, err := freshStore("load")
		if err != nil {
			ps.err = err
			return
		}
		defer cleanup()
		for i := 0; i < loadObjs; i++ {
			if err := fs.Put(oid(i), b4k[:256], map[string][]byte{"k": b4k[:32]}); err != nil {
				ps.err = fmt.Errorf("probe rados.load_ms_per_kobj: %w", err)
				return
			}
		}
		ps.per("rados.load_ms_per_kobj", 1e3, func() (time.Duration, int, error) {
			t0 := time.Now()
			objs, err := fs.Load()
			d := time.Since(t0)
			if err == nil && len(objs) != loadObjs {
				err = fmt.Errorf("loaded %d of %d objects", len(objs), loadObjs)
			}
			return d, loadObjs, err
		})
	}
	ps.per("rados.striper_ms_per_16m", 1e6, func() (time.Duration, int, error) {
		fs, cleanup, err := freshStore("striper")
		if err != nil {
			return 0, 0, err
		}
		defer cleanup()
		var werr error
		d := inReal(func(e *realrt.Engine, t runtime.Task) time.Duration {
			c := rados.New(e, ps.cfg)
			if werr = c.AttachStore(fs); werr != nil {
				return 0
			}
			t0 := time.Now()
			werr = rados.NewStriper(c).Write(t, "probe", "journal", b16m)
			return time.Since(t0)
		})
		return d, 1, werr
	})
}

// simCluster builds a simulated cluster on host_cfg, so a probe through
// it measures the program's dispatch cost and no modeled service time.
func (ps *probeSet) simCluster(ranks int) *cudele.Cluster {
	return cudele.NewCluster(cudele.WithConfig(ps.cfg), cudele.WithMDSRanks(ranks))
}

func (ps *probeSet) mds() {
	n := ps.n(20_000)
	names := probeNames("f", max(n, 1000)) // listings and lookups want 1 000 entries at any scale
	submit := func(name string, stream bool, prefill int, iters int, req func(dir namespace.Ino, i int) *mds.Request) {
		ps.per(name, 1e3, func() (time.Duration, int, error) {
			cl := ps.simCluster(1)
			defer cl.Close()
			srv := cl.MDS()
			srv.OpenSession("probe")
			srv.SetStream(stream)
			var d time.Duration
			var perr error
			cl.Run(func(p cudele.Proc) {
				mk := srv.Submit(p, &mds.Request{Op: mds.OpMkdir, Client: "probe", Parent: cudele.RootIno, Name: "d", Mode: 0755})
				if mk.Err != nil {
					perr = mk.Err
					return
				}
				for i := 0; i < prefill; i++ {
					if r := srv.Submit(p, &mds.Request{Op: mds.OpCreate, Client: "probe", Parent: mk.Ino, Name: names[i], Mode: 0644}); r.Err != nil {
						perr = r.Err
						return
					}
				}
				reqs := make([]*mds.Request, iters)
				for i := range reqs {
					reqs[i] = req(mk.Ino, i)
				}
				t0 := time.Now()
				for _, r := range reqs {
					if reply := srv.Submit(p, r); reply.Err != nil {
						perr = reply.Err
					}
				}
				d = time.Since(t0)
			})
			return d, iters, perr
		})
	}
	create := func(dir namespace.Ino, i int) *mds.Request {
		return &mds.Request{Op: mds.OpCreate, Client: "probe", Parent: dir, Name: names[i], Mode: 0644}
	}
	submit("mds.submit_create_us", false, 0, n, create)
	submit("mds.submit_create_stream_us", true, 0, n, create)
	submit("mds.submit_lookup_us", false, 1000, n, func(dir namespace.Ino, i int) *mds.Request {
		return &mds.Request{Op: mds.OpLookup, Client: "probe", Parent: dir, Name: names[i%1000]}
	})
	submit("mds.submit_readdir_us", false, 1000, ps.n(300), func(dir namespace.Ino, _ int) *mds.Request {
		return &mds.Request{Op: mds.OpReadDir, Client: "probe", Parent: dir}
	})

	// The four merge entry points, each fed n create events for one dir.
	merge := func(name string, apply func(p cudele.Proc, srv *mds.Server, evs []*journal.Event, nominal int64) (int, error)) {
		ps.per(name, 1, func() (time.Duration, int, error) {
			cl := ps.simCluster(1)
			defer cl.Close()
			srv := cl.MDS()
			var d time.Duration
			var applied int
			var perr error
			cl.Run(func(p cudele.Proc) {
				mk := srv.Submit(p, &mds.Request{Op: mds.OpMkdir, Client: "probe", Parent: cudele.RootIno, Name: "d", Mode: 0755})
				if mk.Err != nil {
					perr = mk.Err
					return
				}
				evs := probeEvents(n, uint64(mk.Ino), 1<<40)
				nominal := int64(n) * int64(ps.cfg.JournalEventBytes)
				t0 := time.Now()
				applied, perr = apply(p, srv, evs, nominal)
				d = time.Since(t0)
			})
			if perr == nil && applied != n {
				perr = fmt.Errorf("applied %d of %d events", applied, n)
			}
			return d, n, perr
		})
	}
	merge("mds.apply_ns_per_event", func(p cudele.Proc, srv *mds.Server, evs []*journal.Event, nominal int64) (int, error) {
		return srv.VolatileApply(p, evs, nominal)
	})
	merge("mds.validate_ns_per_event", func(p cudele.Proc, srv *mds.Server, evs []*journal.Event, nominal int64) (int, error) {
		applied, conflicts, err := srv.SpeculativeApply(p, evs, nominal)
		if err == nil && len(conflicts) != 0 {
			err = fmt.Errorf("%d predictions rejected", len(conflicts))
		}
		return applied, err
	})
	merge("mds.converge_ns_per_event", func(p cudele.Proc, srv *mds.Server, evs []*journal.Event, nominal int64) (int, error) {
		return srv.ConvergeApply(p, evs, nominal)
	})
	merge("mds.apply_chunked_ns_per_event", func(p cudele.Proc, srv *mds.Server, evs []*journal.Event, nominal int64) (int, error) {
		const chunk = 256
		retry := ps.cfg.MergeRetryDelay
		open := transport.SendWindowed(p, srv, &mds.MergeOpenMsg{Client: "probe", TotalEvents: len(evs), TotalBytes: nominal}, retry).(*mds.MergeOpenReply)
		if open.Err != nil {
			return 0, open.Err
		}
		for seq, off := 0, 0; off < len(evs); seq, off = seq+1, off+chunk {
			end := off + chunk
			if end > len(evs) {
				end = len(evs)
			}
			r := transport.SendWindowed(p, srv, &mds.MergeChunkMsg{
				StreamInfo: transport.StreamInfo{ID: open.ID, Seq: seq, Items: end - off,
					Bytes: int64(end-off) * int64(ps.cfg.JournalEventBytes), Last: end == len(evs)},
				Events: evs[off:end],
			}, retry).(*mds.MergeChunkReply)
			if r.Err != nil {
				return 0, r.Err
			}
		}
		w := srv.Post(p, &mds.MergeWaitMsg{ID: open.ID}).(*mds.MergeReply)
		return w.Applied, w.Err
	})
}

func (ps *probeSet) monitor() {
	dirs := ps.n(200)
	ps.per("monitor.register_us", 1e3, func() (time.Duration, int, error) {
		cl := ps.simCluster(1)
		defer cl.Close()
		c := cl.NewClient("probe")
		var d time.Duration
		var perr error
		cl.Run(func(p cudele.Proc) {
			paths := make([]string, dirs)
			for i := range paths {
				paths[i] = fmt.Sprintf("/job%03d", i)
				if _, perr = c.MkdirAll(p, paths[i], 0755); perr != nil {
					return
				}
			}
			const text = "consistency: weak\ndurability: none\nallocated_inodes: 100\n"
			t0 := time.Now()
			for _, path := range paths {
				if _, perr = cl.Decouple(p, c, path, text); perr != nil {
					return
				}
			}
			d = time.Since(t0)
		})
		return d, dirs, perr
	})
	ps.per("monitor.place_us", 1e3, func() (time.Duration, int, error) {
		cl := ps.simCluster(2)
		defer cl.Close()
		c := cl.NewClient("probe")
		var d time.Duration
		var perr error
		cl.Run(func(p cudele.Proc) {
			paths := make([]string, dirs)
			for i := range paths {
				paths[i] = fmt.Sprintf("/job%03d", i)
				if _, perr = c.MkdirAll(p, paths[i], 0755); perr != nil {
					return
				}
			}
			t0 := time.Now()
			for _, path := range paths {
				if perr = cl.Monitor().Place(p, path, 1); perr != nil {
					return
				}
			}
			d = time.Since(t0)
		})
		return d, dirs, perr
	})
	// One cluster, one 10 000-inode subtree, migrated back and forth.
	inodes := ps.n(10_000)
	if ps.err != nil {
		return
	}
	cl := ps.simCluster(2)
	defer cl.Close()
	c := cl.NewClient("probe")
	var setupErr error
	cl.Run(func(p cudele.Proc) {
		var dir namespace.Ino
		if dir, setupErr = c.MkdirAll(p, "/big", 0755); setupErr != nil {
			return
		}
		for _, name := range probeNames("f", inodes-1) {
			if _, setupErr = c.Create(p, dir, name, 0644); setupErr != nil {
				return
			}
		}
	})
	if setupErr != nil {
		ps.err = fmt.Errorf("probe monitor.migrate_ms_per_kinode: %w", setupErr)
		return
	}
	dst := 0
	ps.per("monitor.migrate_ms_per_kinode", 1e3, func() (time.Duration, int, error) {
		dst = 1 - dst
		var d time.Duration
		var perr error
		cl.Run(func(p cudele.Proc) {
			t0 := time.Now()
			perr = cl.Migrate(p, "/big", dst)
			d = time.Since(t0)
		})
		return d, inodes, perr
	})
}

func (ps *probeSet) small() {
	n := ps.n(200_000)
	ps.per("obs.heat_record_ns", 1, func() (time.Duration, int, error) {
		h := obs.NewHeat(0)
		return loop(n, func(i int) { h.RecordOp(int64(i)*1000, "/job", 0, i&1 == 0, 0) })
	})
	ps.per("obs.flight_record_ns", 1, func() (time.Duration, int, error) {
		f := obs.NewFlight(0)
		return loop(n, func(i int) { f.Record(int64(i), "mds.0", "mds", "rpc.create", "") })
	})
	ps.per("trace.span_ns", 1, func() (time.Duration, int, error) {
		rec := trace.New()
		return loop(n, func(i int) {
			id := rec.Begin(int64(i), "mds.0", "mds", "rpc.create")
			rec.End(id, int64(i)+1)
		})
	})
	ps.per("stats.observe_ns", 1, func() (time.Duration, int, error) {
		var h stats.Histogram
		return loop(n, func(i int) { h.Observe(time.Duration(i)) })
	})
	const text = "consistency: weak\ndurability: local\nallocated_inodes: 1000\ninterfere: block\n"
	ps.per("policy.parse_ns", 1, func() (time.Duration, int, error) {
		var perr error
		d, cnt, _ := loop(ps.n(20_000), func(int) {
			pol, err := policy.ParseFile(text)
			if err != nil {
				perr = err
			}
			probeSink = pol
		})
		return d, cnt, perr
	})
	ps.per("policy.compile_ns", 1, func() (time.Duration, int, error) {
		cons, durs := policy.AllConsistencies(), policy.AllDurabilities()
		var perr error
		d, cnt, _ := loop(n, func(i int) {
			comp, err := policy.Compile(cons[i%len(cons)], durs[i%len(durs)])
			if err != nil {
				perr = err
			}
			probeSink = comp
		})
		return d, cnt, perr
	})
}
