package mds

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cudele/internal/journal"
	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/rados"
	"cudele/internal/realrt"
	"cudele/internal/runtime"
	"cudele/internal/sim"
	"cudele/internal/trace"
)

func newTestServer() (runtime.Runtime, *Server) { return newTestServerCfg(model.Default()) }

// gauge reads one of the rank's exported gauges, the way a scrape does.
func gauge(s *Server, name string) int {
	reg := trace.NewRegistry()
	s.FillMetrics(reg)
	v, _ := reg.Value(name, trace.KV{Key: "daemon", Val: s.ep.Name()})
	return int(v)
}

// nextGrant is each test cluster's next unissued grant slot.
var nextGrant struct {
	sync.Mutex
	next map[*Cluster]uint64
}

// decouple registers pol on the subtree at path for client the way the
// monitor does, with an AttachMsg, and returns the inode grant: the
// monitor's arithmetic (2^24-inode slots in the rank's band at 2^40 +
// rank<<34) over a slot counter the test cluster keeps.
func decouple(p runtime.Task, s *Server, path string, pol *policy.Policy, client string) (namespace.Ino, uint64, error) {
	n := uint64(pol.AllocatedInodes)
	if pol.AllocatedInodes <= 0 {
		n = uint64(s.cfg.AllocatedInodesDefault)
	}
	nextGrant.Lock()
	if nextGrant.next == nil {
		nextGrant.next = make(map[*Cluster]uint64)
	}
	slot := nextGrant.next[s.c]
	nextGrant.next[s.c] = slot + (n+1<<24-1)>>24
	nextGrant.Unlock()
	reg := *pol
	reg.Owner, reg.GrantLo, reg.GrantN = client, 1<<40+uint64(s.rank)<<34+slot<<24, n
	if err := s.Post(p, &AttachMsg{Path: path, Policy: &reg}).(*AttachReply).Err; err != nil {
		return 0, 0, err
	}
	return namespace.Ino(reg.GrantLo), n, nil
}

func run(t *testing.T, eng runtime.Runtime, fn func(p runtime.Task)) {
	t.Helper()
	eng.Spawn("test", fn)
	eng.RunAll()
}

func TestSubmitCreateLookup(t *testing.T) {
	eng, s := newTestServer()
	s.OpenSession("c0")
	run(t, eng, func(p runtime.Task) {
		r := s.Submit(p, &Request{Op: OpCreate, Client: "c0", Parent: namespace.RootIno, Name: "f", Mode: 0644})
		if r.Err != nil {
			t.Errorf("create: %v", r.Err)
			return
		}
		if r.Ino == 0 || r.IsDir {
			t.Errorf("create reply = %+v", r)
		}
		if !r.CapGranted {
			t.Error("first writer did not get the dir cap")
		}
		lk := s.Submit(p, &Request{Op: OpLookup, Client: "c0", Parent: namespace.RootIno, Name: "f"})
		if lk.Err != nil || lk.Ino != r.Ino {
			t.Errorf("lookup = %+v", lk)
		}
		missing := s.Submit(p, &Request{Op: OpLookup, Client: "c0", Parent: namespace.RootIno, Name: "nope"})
		if !errors.Is(missing.Err, namespace.ErrNotExist) {
			t.Errorf("missing lookup err = %v", missing.Err)
		}
	})
}

func TestSubmitAllOps(t *testing.T) {
	eng, s := newTestServer()
	s.OpenSession("c0")
	run(t, eng, func(p runtime.Task) {
		mk := s.Submit(p, &Request{Op: OpMkdir, Client: "c0", Parent: namespace.RootIno, Name: "d", Mode: 0755})
		if mk.Err != nil || !mk.IsDir {
			t.Fatalf("mkdir = %+v", mk)
		}
		cr := s.Submit(p, &Request{Op: OpCreate, Client: "c0", Parent: mk.Ino, Name: "f", Mode: 0644})
		if cr.Err != nil {
			t.Fatalf("create: %v", cr.Err)
		}
		sa := s.Submit(p, &Request{Op: OpSetAttr, Client: "c0", Ino: cr.Ino, Mode: 0600, Size: 42})
		if sa.Err != nil {
			t.Fatalf("setattr: %v", sa.Err)
		}
		ga := s.Submit(p, &Request{Op: OpGetAttr, Client: "c0", Ino: cr.Ino})
		if ga.Err != nil || ga.Mode != 0600 || ga.Size != 42 {
			t.Fatalf("getattr = %+v", ga)
		}
		rd := s.Submit(p, &Request{Op: OpReadDir, Client: "c0", Parent: mk.Ino})
		if rd.Err != nil || len(rd.Names) != 1 || rd.Names[0] != "f" {
			t.Fatalf("readdir = %+v", rd)
		}
		rn := s.Submit(p, &Request{Op: OpRename, Client: "c0", Parent: mk.Ino, Name: "f", NewParent: namespace.RootIno, NewName: "g"})
		if rn.Err != nil {
			t.Fatalf("rename: %v", rn.Err)
		}
		rs := s.Submit(p, &Request{Op: OpResolve, Client: "c0", Path: "/g"})
		if rs.Err != nil || rs.Ino != cr.Ino {
			t.Fatalf("resolve = %+v", rs)
		}
		ul := s.Submit(p, &Request{Op: OpUnlink, Client: "c0", Parent: namespace.RootIno, Name: "g"})
		if ul.Err != nil {
			t.Fatalf("unlink: %v", ul.Err)
		}
	})
	m := s.Metrics()
	if m.Requests != 8 {
		t.Fatalf("requests = %d, want 8", m.Requests)
	}
	if m.ByOp[OpCreate] != 1 || m.ByOp[OpRename] != 1 {
		t.Fatalf("by-op = %v", m.ByOp)
	}
}

// TestListingMetrics: the listing counters say how many readdirs the
// snapshot served — ten listings around one create sort twice.
func TestListingMetrics(t *testing.T) {
	eng, s := newTestServer()
	s.OpenSession("c0")
	run(t, eng, func(p runtime.Task) {
		for i := 0; i < 10; i++ {
			if i == 5 {
				if cr := s.Submit(p, &Request{Op: OpCreate, Client: "c0", Parent: namespace.RootIno, Name: "f"}); cr.Err != nil {
					t.Fatalf("create: %v", cr.Err)
				}
			}
			if rd := s.Submit(p, &Request{Op: OpReadDir, Client: "c0", Parent: namespace.RootIno}); rd.Err != nil {
				t.Fatalf("readdir: %v", rd.Err)
			}
		}
	})
	reg := trace.NewRegistry()
	s.FillMetrics(reg)
	daemon := trace.KV{Key: "daemon", Val: s.ep.Name()}
	for name, want := range map[string]float64{
		"cudele_mds_dir_listings_total":         10,
		"cudele_mds_dir_listing_rebuilds_total": 2,
	} {
		if got, ok := reg.Value(name, daemon); !ok || got != want {
			t.Errorf("%s = %v (exported: %v), want %v", name, got, ok, want)
		}
	}
}

func TestSubmitAfterShutdown(t *testing.T) {
	eng, s := newTestServer()
	s.Shutdown()
	run(t, eng, func(p runtime.Task) {
		r := s.Submit(p, &Request{Op: OpLookup, Parent: namespace.RootIno, Name: "x"})
		if !errors.Is(r.Err, ErrShutdown) {
			t.Errorf("err = %v, want ErrShutdown", r.Err)
		}
	})
}

func TestSingleClientRPCRate(t *testing.T) {
	// Paper §II-A: 1 client creating files over RPC with journaling off
	// runs at ~654 creates/s.
	eng, s := newTestServer()
	s.OpenSession("c0")
	const n = 2000
	var elapsed runtime.Time
	run(t, eng, func(p runtime.Task) {
		p.Sleep(s.cfg.ClientOpOverhead) // warm-up alignment, negligible
		start := p.Now()
		for i := 0; i < n; i++ {
			// Client-side overhead is charged by the client library;
			// emulate it here for the calibration check.
			p.Sleep(s.cfg.ClientOpOverhead)
			r := s.Submit(p, &Request{Op: OpCreate, Client: "c0", Parent: namespace.RootIno, Name: fmt.Sprintf("f%d", i), Mode: 0644})
			if r.Err != nil {
				t.Errorf("create %d: %v", i, r.Err)
				return
			}
		}
		elapsed = p.Now() - start
	})
	rate := n / elapsed.Seconds()
	if rate < 600 || rate > 710 {
		t.Fatalf("single-client RPC rate = %.0f/s, want ~654", rate)
	}
}

func TestSingleClientJournalOnRate(t *testing.T) {
	// Paper §II-B: with journaling on the same workload runs at ~513/s.
	eng, s := newTestServer()
	s.OpenSession("c0")
	s.SetStream(true)
	const n = 2000
	var elapsed runtime.Time
	run(t, eng, func(p runtime.Task) {
		start := p.Now()
		for i := 0; i < n; i++ {
			p.Sleep(s.cfg.ClientOpOverhead)
			s.Submit(p, &Request{Op: OpCreate, Client: "c0", Parent: namespace.RootIno, Name: fmt.Sprintf("f%d", i), Mode: 0644})
		}
		elapsed = p.Now() - start
	})
	rate := n / elapsed.Seconds()
	if rate < 470 || rate > 560 {
		t.Fatalf("journal-on RPC rate = %.0f/s, want ~513", rate)
	}
	if got := s.Metrics().Journaled; got != n {
		t.Fatalf("journaled = %d, want %d", got, n)
	}
}

func TestMDSSaturation(t *testing.T) {
	// Paper §II-A: peak single-MDS throughput is ~3000 op/s; 20 clients
	// saturate it.
	eng, s := newTestServer()
	const clients = 20
	const per = 1000
	g := eng.NewDomain("clients").NewGroup()
	for c := 0; c < clients; c++ {
		name := fmt.Sprintf("c%d", c)
		s.OpenSession(name)
		g.Go(name, func(p runtime.Task) {
			dir := s.Submit(p, &Request{Op: OpMkdir, Client: name, Parent: namespace.RootIno, Name: name, Mode: 0755})
			for i := 0; i < per; i++ {
				p.Sleep(s.cfg.ClientOpOverhead)
				s.Submit(p, &Request{Op: OpCreate, Client: name, Parent: dir.Ino, Name: fmt.Sprintf("f%d", i), Mode: 0644})
			}
		})
	}
	var total runtime.Time
	eng.Spawn("wait", func(p runtime.Task) {
		g.Wait(p)
		total = p.Now()
	})
	eng.RunAll()
	agg := float64(clients*per) / total.Seconds()
	if agg < 1800 || agg > 3000 {
		t.Fatalf("saturated aggregate = %.0f op/s, want ~2200-2400 (3000 minus session overhead)", agg)
	}
}

func TestCapGrantRevokeFlow(t *testing.T) {
	eng, s := newTestServer()
	s.OpenSession("a")
	s.OpenSession("b")
	run(t, eng, func(p runtime.Task) {
		d := s.Submit(p, &Request{Op: OpMkdir, Client: "a", Parent: namespace.RootIno, Name: "d", Mode: 0755})
		// a is the sole writer: cap granted.
		r1 := s.Submit(p, &Request{Op: OpCreate, Client: "a", Parent: d.Ino, Name: "f1"})
		if !r1.CapGranted || r1.CapLost {
			t.Fatalf("first create reply = %+v", r1)
		}
		if holder, ok := s.CapHolder(d.Ino); !ok || holder != "a" {
			t.Fatalf("cap holder = %q, %v", holder, ok)
		}
		// b interferes: revoke + shared.
		r2 := s.Submit(p, &Request{Op: OpCreate, Client: "b", Parent: d.Ino, Name: "f2"})
		if !r2.CapLost || r2.CapGranted {
			t.Fatalf("interfering create reply = %+v", r2)
		}
		if !s.DirShared(d.Ino) {
			t.Fatal("dir not marked shared after interference")
		}
		if _, ok := s.CapHolder(d.Ino); ok {
			t.Fatal("cap still held after revocation")
		}
		// a's next create sees CapLost.
		r3 := s.Submit(p, &Request{Op: OpCreate, Client: "a", Parent: d.Ino, Name: "f3"})
		if !r3.CapLost {
			t.Fatalf("post-revoke reply = %+v", r3)
		}
	})
	if s.Metrics().CapRevokes != 1 {
		t.Fatalf("revokes = %d, want 1", s.Metrics().CapRevokes)
	}
}

func TestCloseSessionDropsCaps(t *testing.T) {
	eng, s := newTestServer()
	s.OpenSession("a")
	run(t, eng, func(p runtime.Task) {
		d := s.Submit(p, &Request{Op: OpMkdir, Client: "a", Parent: namespace.RootIno, Name: "d"})
		s.Submit(p, &Request{Op: OpCreate, Client: "a", Parent: d.Ino, Name: "f"})
		if _, ok := s.CapHolder(d.Ino); !ok {
			t.Fatal("no cap before close")
		}
		s.CloseSession("a")
		if _, ok := s.CapHolder(d.Ino); ok {
			t.Fatal("cap survived session close")
		}
	})
	if n := gauge(s, "cudele_mds_sessions"); n != 0 {
		t.Fatalf("sessions = %d", n)
	}
}

func TestStreamDispatchAndFlush(t *testing.T) {
	eng, s := newTestServer()
	s.OpenSession("c0")
	s.SetStream(true)
	// Small segments so several dispatches happen.
	s.cfg.SegmentEvents = 100
	const n = 950
	var objs [][]byte
	run(t, eng, func(p runtime.Task) {
		for i := 0; i < n; i++ {
			s.Submit(p, &Request{Op: OpCreate, Client: "c0", Parent: namespace.RootIno, Name: fmt.Sprintf("f%d", i)})
		}
		s.FlushJournal(p)
		striper := rados.NewStriper(s.obj)
		for idx := 0; ; idx++ {
			data, err := striper.Read(p, JournalPool, journalObjectName(0, idx))
			if err != nil {
				break
			}
			objs = append(objs, data)
		}
	})
	m := s.Metrics()
	if m.Dispatches != 10 { // 9 sealed + 1 final partial
		t.Fatalf("dispatches = %d, want 10", m.Dispatches)
	}
	// Every create is in the objects, in submit order and numbered from
	// zero, and each object is exactly journal.Encode of its events: the
	// segment bytes the rank kept are the on-store format.
	seq := 0
	for idx, data := range objs {
		evs, err := journal.Decode(data)
		if err != nil {
			t.Fatalf("segment %d: %v", idx, err)
		}
		for _, ev := range evs {
			if want := fmt.Sprintf("f%d", seq); ev.Type != journal.EvCreate || ev.Name != want || ev.Seq != uint64(seq) {
				t.Fatalf("segment %d record %s %q seq %d, want create %q seq %d", idx, ev.Type, ev.Name, ev.Seq, want, seq)
			}
			seq++
		}
		if enc, err := journal.Encode(evs); err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("segment %d is not journal.Encode of its %d events (err %v)", idx, len(evs), err)
		}
	}
	if seq != n {
		t.Fatalf("segment objects hold %d creates, want %d", seq, n)
	}
	if got := gauge(s, "cudele_mds_journal_events"); got != n {
		t.Fatalf("journal len = %d, want %d", got, n)
	}
	s.TrimJournal()
	if got := gauge(s, "cudele_mds_journal_events"); got != 0 {
		t.Fatalf("journal len after trim = %d", got)
	}
}

// submitCreateAllocs measures what one create Submit costs the heap on a
// warm simulated rank, with journal streaming on or off. The warm creates
// grow the maps a create adds to, and fill and dispatch a segment, so
// their amortised growth rounds away.
func submitCreateAllocs(t *testing.T, stream bool) float64 {
	t.Helper()
	eng, s := newTestServer()
	s.OpenSession("c0")
	s.SetStream(stream)
	const warm, runs = 2000, 2000
	names := make([]string, warm+runs+1)
	for i := range names {
		names[i] = fmt.Sprintf("f%06d", i)
	}
	var allocs float64
	run(t, eng, func(p runtime.Task) {
		next := 0
		req := &Request{Op: OpCreate, Client: "c0", Parent: namespace.RootIno, Mode: 0644}
		create := func() {
			req.Name = names[next]
			if r := s.Submit(p, req); r.Err != nil {
				t.Errorf("create %s: %v", req.Name, r.Err)
			}
			next++
		}
		for next < warm {
			create()
		}
		allocs = testing.AllocsPerRun(runs, create)
	})
	if got := gauge(s, "cudele_mds_journal_events"); stream && got != warm+runs+1 {
		t.Fatalf("journal holds %d events, want %d", got, warm+runs+1)
	}
	return allocs
}

// TestStreamedCreateAllocations pins what journaling costs a create: no
// object at all. The event is built on the stack and encoded straight
// into the open segment, so a streamed create allocates what an
// unstreamed one does, the inode.
func TestStreamedCreateAllocations(t *testing.T) {
	off, on := submitCreateAllocs(t, false), submitCreateAllocs(t, true)
	if off != 1 || on != off {
		t.Fatalf("a create Submit allocates %.0f objects with the stream off and %.0f with it on, want 1 and 1", off, on)
	}
}

// TestSealedSegmentExactLength: a rank encodes every segment into the one
// open buffer it owns and queues an exact-length copy at each seal, so
// every queued segment's capacity is its length, no later segment
// overwrites an earlier one, and after the first seal a segment's worth
// of appends allocates only the sealed copy.
func TestSealedSegmentExactLength(t *testing.T) {
	_, s := newTestServer()
	st := s.stream
	const seg, segs = 100, 12
	s.cfg.SegmentEvents = seg
	st.dispatching = true // no dispatcher drains the queue
	evs := make([]journal.Event, seg*segs)
	for i := range evs {
		evs[i] = journal.Event{Type: journal.EvCreate, Client: "c0",
			Parent: uint64(namespace.RootIno), Name: fmt.Sprintf("f%06d", i), Ino: 1<<20 + uint64(i), Mode: 0644}
	}
	next := 0
	segment := func() {
		for range seg {
			if !st.journalEvent(evs[next]) {
				t.Fatalf("event %d not journaled", next)
			}
			next++
		}
	}
	segment()
	st.queue, st.sealed = slices.Grow(st.queue, segs), slices.Grow(st.sealed, segs)
	if allocs := testing.AllocsPerRun(segs-2, segment); allocs != 1 {
		t.Fatalf("a segment of appends allocates %v times, want 1 (the sealed copy)", allocs)
	}
	if len(st.queue) != segs {
		t.Fatalf("%d segments queued, want %d", len(st.queue), segs)
	}
	for i, q := range st.queue {
		if cap(q.data) != len(q.data) {
			t.Errorf("segment %d: cap %d, len %d", i, cap(q.data), len(q.data))
		}
		got, err := journal.Decode(q.data)
		if err != nil || len(got) != seg || got[0].Seq != uint64(i*seg) || got[0].Name != evs[i*seg].Name {
			t.Fatalf("segment %d decodes to %d events (err %v), not events %d.. of the journal", i, len(got), err, i*seg)
		}
	}
}

// TestReplayOverNewerSavedImage: a rank that journals, saves its store
// and crashes restarts from an image that already holds the journal's
// outcome, and replays the whole journal over it. The create of a meets
// its inode already named b, the rename meets no a, the create of c
// meets nothing and the unlink of c removes it again; the first two are
// benign, and every acked path must come back with its acked inode.
func TestReplayOverNewerSavedImage(t *testing.T) {
	eng, s := newTestServer()
	s.OpenSession("c0")
	s.SetStream(true)
	acked := map[string]namespace.Ino{}
	run(t, eng, func(p runtime.Task) {
		submit := func(req *Request) *Reply {
			r := s.Submit(p, req)
			if r.Err != nil {
				t.Errorf("%v %s: %v", req.Op, req.Name, r.Err)
			}
			return r
		}
		d := submit(&Request{Op: OpMkdir, Client: "c0", Parent: namespace.RootIno, Name: "d", Mode: 0755})
		acked["/d"] = d.Ino
		a := submit(&Request{Op: OpCreate, Client: "c0", Parent: d.Ino, Name: "a", Mode: 0644})
		submit(&Request{Op: OpRename, Client: "c0", Parent: d.Ino, Name: "a", NewParent: d.Ino, NewName: "b"})
		acked["/d/b"] = a.Ino
		submit(&Request{Op: OpCreate, Client: "c0", Parent: d.Ino, Name: "c", Mode: 0644})
		submit(&Request{Op: OpUnlink, Client: "c0", Parent: d.Ino, Name: "c"})
		e := submit(&Request{Op: OpCreate, Client: "c0", Parent: d.Ino, Name: "e", Mode: 0644})
		acked["/d/e"] = e.Ino
		s.FlushJournal(p)
		if err := s.SaveStore(p); err != nil {
			t.Errorf("save: %v", err)
			return
		}
		s.Crash(p)
		if err := s.Restart(p, nil); err != nil {
			t.Errorf("restart: %v", err)
		}
	})
	if s.recoveredSegs == 0 {
		t.Fatal("restart replayed no journal segment")
	}
	for path, want := range acked {
		if in, err := s.Store().Resolve(path); err != nil || in.Ino != want {
			t.Errorf("%s after restart: %v, %v; acked inode %d", path, in, err, want)
		}
	}
	for _, gone := range []string{"/d/a", "/d/c"} {
		if _, err := s.Store().Resolve(gone); !errors.Is(err, namespace.ErrNotExist) {
			t.Errorf("%s after restart: %v, want ErrNotExist", gone, err)
		}
	}
	if probs := s.Store().Check(); len(probs) != 0 {
		t.Errorf("store after restart: %v", probs)
	}
}

// TestSaveStoreCommitsOnce: on a data dir SaveStore's N directory objects
// are N log records and one wait for the disk, a second server over the
// same directory recovers the namespace from them, and a save whose Flush
// fails (the data dir is gone) says so.
func TestSaveStoreCommitsOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	open := func() (*realrt.Engine, *rados.Cluster, *Server) {
		eng := realrt.New(17)
		t.Cleanup(func() { eng.Shutdown() })
		obj := rados.New(eng, model.Default())
		fs, err := rados.OpenFileStore(dir)
		if err == nil {
			err = obj.AttachStore(fs)
		}
		if err != nil {
			t.Fatal(err)
		}
		return eng, obj, NewCluster(eng, model.Default(), obj, 1).Rank(0)
	}
	eng, obj, s := open()
	s.OpenSession("c0")
	const dirs = 6
	run(t, eng, func(p runtime.Task) {
		for i := 0; i < dirs; i++ {
			d := s.Submit(p, &Request{Op: OpMkdir, Client: "c0", Parent: namespace.RootIno, Name: fmt.Sprintf("d%d", i), Mode: 0755})
			s.Submit(p, &Request{Op: OpCreate, Client: "c0", Parent: d.Ino, Name: "f", Mode: 0644})
		}
		before := obj.Stats()
		if err := s.SaveStore(p); err != nil {
			t.Errorf("save: %v", err)
			return
		}
		after := obj.Stats()
		if recs, commits := after.Records-before.Records, after.Commits-before.Commits; recs != dirs+1 || commits != 1 {
			t.Errorf("saving %d directories and the root: %d records in %d commits, want %d in 1", dirs, recs, commits, dirs+1)
		}
	})
	eng2, _, s2 := open()
	run(t, eng2, func(p runtime.Task) {
		if err := s2.Recover(p); err != nil {
			t.Errorf("recover: %v", err)
		}
	})
	if !namespace.Equal(s.Store(), s2.Store()) {
		t.Error("the namespace recovered from the data dir differs from the one saved")
	}
	run(t, eng, func(p runtime.Task) {
		if err := os.RemoveAll(dir); err != nil {
			t.Error(err)
			return
		}
		dirs, _, _ := s.Store().Subtree("/")
		if n, err := s.saveDirs(p, dirs); err == nil || n != 0 {
			t.Errorf("save with the data dir gone = %d, %v; want 0 and the Flush's error", n, err)
		}
	})
}

func TestSaveStoreRecover(t *testing.T) {
	eng, s := newTestServer()
	s.OpenSession("c0")
	var before *namespace.Store
	run(t, eng, func(p runtime.Task) {
		d := s.Submit(p, &Request{Op: OpMkdir, Client: "c0", Parent: namespace.RootIno, Name: "proj", Mode: 0755})
		for i := 0; i < 20; i++ {
			s.Submit(p, &Request{Op: OpCreate, Client: "c0", Parent: d.Ino, Name: fmt.Sprintf("f%d", i), Mode: 0644})
		}
		sub := s.Submit(p, &Request{Op: OpMkdir, Client: "c0", Parent: d.Ino, Name: "sub", Mode: 0755})
		s.Submit(p, &Request{Op: OpCreate, Client: "c0", Parent: sub.Ino, Name: "deep", Mode: 0644})
		if err := s.SaveStore(p); err != nil {
			t.Errorf("save: %v", err)
			return
		}
		before = s.Store()
		if err := s.Recover(p); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
	})
	if before == nil {
		t.Fatal("setup failed")
	}
	if s.Store() == before {
		t.Fatal("recover did not rebuild the store")
	}
	if !namespace.Equal(before, s.Store()) {
		t.Fatal("recovered store differs")
	}
}

// TestRecoverInstallsParentsFirst: after two renames the pool lists /c/b/a
// leaf first (2.… < 3.… < 4.…), and a's parent inode exists only once c's
// object has installed b — Recover's one pass has to be parents-first. An
// object whose parent is neither in the pool nor in the fresh store is the
// orphan error, naming the object.
func TestRecoverInstallsParentsFirst(t *testing.T) {
	eng, s := newTestServer()
	s.OpenSession("c0")
	done := false
	run(t, eng, func(p runtime.Task) {
		var dirs [3]namespace.Ino // a, b, c
		for i, name := range []string{"a", "b", "c"} {
			dirs[i] = s.Submit(p, &Request{Op: OpMkdir, Client: "c0", Parent: namespace.RootIno, Name: name, Mode: 0755}).Ino
		}
		s.Submit(p, &Request{Op: OpCreate, Client: "c0", Parent: dirs[0], Name: "f", Mode: 0644})
		for i, name := range []string{"a", "b"} {
			r := s.Submit(p, &Request{Op: OpRename, Client: "c0", Parent: namespace.RootIno, Name: name, NewParent: dirs[i+1], NewName: name})
			if r.Err != nil || dirs[i] >= dirs[i+1] {
				t.Errorf("rename %s: %v (inos %v)", name, r.Err, dirs)
				return
			}
		}
		if err := s.SaveStore(p); err != nil {
			t.Errorf("save: %v", err)
			return
		}
		before := s.Store()
		if err := s.Recover(p); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		if _, err := s.Store().Resolve("/c/b/a/f"); err != nil || !namespace.Equal(before, s.Store()) {
			t.Errorf("recovered store differs (resolve: %v)", err)
		}

		// Lose b's object: a has nothing to hang from.
		if err := s.obj.Remove(p, rados.ObjectID{Pool: namespace.ObjectPool, Name: namespace.DirObjectName(dirs[1])}); err != nil {
			t.Errorf("remove: %v", err)
		}
		err := s.Recover(p)
		if want := "orphan directory object " + namespace.DirObjectName(dirs[0]); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("recover without the parent's object: %v, want %q", err, want)
		}
		done = true
	})
	if !done {
		t.Fatal("the test task did not finish")
	}
}

func TestRecoverReplaysStreamedJournal(t *testing.T) {
	// Save the store early, keep creating (journaled), then recover: the
	// journal replay must reproduce the post-save creates.
	eng, s := newTestServer()
	s.OpenSession("c0")
	s.SetStream(true)
	run(t, eng, func(p runtime.Task) {
		d := s.Submit(p, &Request{Op: OpMkdir, Client: "c0", Parent: namespace.RootIno, Name: "d", Mode: 0755})
		s.Submit(p, &Request{Op: OpCreate, Client: "c0", Parent: d.Ino, Name: "before", Mode: 0644})
		if err := s.SaveStore(p); err != nil {
			t.Errorf("save: %v", err)
			return
		}
		s.Submit(p, &Request{Op: OpCreate, Client: "c0", Parent: d.Ino, Name: "after", Mode: 0644})
		s.FlushJournal(p)
		if err := s.Recover(p); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
	})
	for _, name := range []string{"/d/before", "/d/after"} {
		if _, err := s.Store().Resolve(name); err != nil {
			t.Errorf("%s missing after recovery: %v", name, err)
		}
	}
}

func TestVolatileApplyMatchesRPC(t *testing.T) {
	// The paper's core merge property: a decoupled journal merged via
	// Volatile Apply yields the same namespace as doing the ops via RPC.
	engA, sA := newTestServer()
	sA.OpenSession("c0")
	run(t, engA, func(p runtime.Task) {
		d := sA.Submit(p, &Request{Op: OpMkdir, Client: "c0", Parent: namespace.RootIno, Name: "job", Mode: 0755})
		for i := 0; i < 100; i++ {
			sA.Submit(p, &Request{Op: OpCreate, Client: "c0", Parent: d.Ino, Name: fmt.Sprintf("f%d", i), Mode: 0644})
		}
	})

	engB, sB := newTestServer()
	run(t, engB, func(p runtime.Task) {
		j := journal.New(1024)
		j.Append(&journal.Event{Type: journal.EvMkdir, Client: "c0",
			Parent: uint64(namespace.RootIno), Name: "job", Ino: 1 << 41, Mode: 0755})
		for i := 0; i < 100; i++ {
			j.Append(&journal.Event{Type: journal.EvCreate, Client: "c0",
				Parent: 1 << 41, Name: fmt.Sprintf("f%d", i), Ino: uint64(1<<41 + 1 + i), Mode: 0644})
		}
		n, err := sB.VolatileApply(p, j.Events(), int64(j.Len())*2500)
		if err != nil || n != 101 {
			t.Errorf("volatile apply = %d, %v", n, err)
		}
	})
	if !namespace.Equal(sA.Store(), sB.Store()) {
		t.Fatal("merged namespace differs from RPC namespace")
	}
	if sB.Metrics().MergeJobs != 1 || sB.Metrics().Merged != 101 {
		t.Fatalf("merge metrics = %+v", sB.Metrics())
	}
}

func TestVolatileApplyRate(t *testing.T) {
	// Paper §V-A: Volatile Apply is ~0.9x the append baseline, i.e.
	// ~12.2K events/s for a single journal.
	eng, s := newTestServer()
	const n = 20000
	events := make([]*journal.Event, 0, n)
	for i := 0; i < n; i++ {
		events = append(events, &journal.Event{Type: journal.EvCreate, Client: "c0",
			Parent: uint64(namespace.RootIno), Name: fmt.Sprintf("f%d", i),
			Ino: uint64(1<<41 + i), Mode: 0644})
	}
	var elapsed runtime.Time
	run(t, eng, func(p runtime.Task) {
		start := p.Now()
		if _, err := s.VolatileApply(p, events, int64(n)*2500); err != nil {
			t.Errorf("apply: %v", err)
		}
		elapsed = p.Now() - start
	})
	rate := n / elapsed.Seconds()
	if rate < 9000 || rate > 13000 {
		t.Fatalf("volatile apply rate = %.0f/s, want ~12K", rate)
	}
}

func TestVolatileApplyErrorStops(t *testing.T) {
	eng, s := newTestServer()
	events := []*journal.Event{
		{Type: journal.EvCreate, Parent: uint64(namespace.RootIno), Name: "ok", Ino: 1 << 41, Mode: 0644},
		{Type: journal.EvUnlink, Parent: 999999, Name: "ghost"},
	}
	run(t, eng, func(p runtime.Task) {
		n, err := s.VolatileApply(p, events, 5000)
		if err == nil || n != 1 {
			t.Errorf("apply = %d, %v; want 1, error", n, err)
		}
	})
}

func TestDecoupleAndInterfereBlock(t *testing.T) {
	eng, s := newTestServer()
	s.OpenSession("owner")
	s.OpenSession("intruder")
	run(t, eng, func(p runtime.Task) {
		d := s.Submit(p, &Request{Op: OpMkdir, Client: "owner", Parent: namespace.RootIno, Name: "mine", Mode: 0755})
		pol := &policy.Policy{
			Consistency: policy.ConsInvisible, Durability: policy.DurLocal,
			AllocatedInodes: 1000, Interfere: policy.InterfereBlock,
		}
		lo, n, err := decouple(p, s, "/mine", pol, "owner")
		if err != nil || n != 1000 || lo == 0 {
			t.Errorf("decouple = %d,%d,%v", lo, n, err)
			return
		}
		if owner, ok := s.Owner(d.Ino); !ok || owner != "owner" {
			t.Errorf("owner = %q,%v", owner, ok)
		}
		// Intruder writes are rejected with EBUSY.
		r := s.Submit(p, &Request{Op: OpCreate, Client: "intruder", Parent: d.Ino, Name: "x"})
		if !errors.Is(r.Err, namespace.ErrBusy) {
			t.Errorf("intruder err = %v, want ErrBusy", r.Err)
		}
		// Reads are not blocked.
		rd := s.Submit(p, &Request{Op: OpReadDir, Client: "intruder", Parent: d.Ino})
		if rd.Err != nil {
			t.Errorf("intruder readdir err = %v", rd.Err)
		}
		// The owner can write.
		r = s.Submit(p, &Request{Op: OpCreate, Client: "owner", Parent: d.Ino, Name: "y"})
		if r.Err != nil {
			t.Errorf("owner create err = %v", r.Err)
		}
		// Recouple (an attach of no registration) clears the block.
		if err := s.Post(p, &AttachMsg{Path: "/mine"}).(*AttachReply).Err; err != nil {
			t.Errorf("recouple: %v", err)
		}
		r = s.Submit(p, &Request{Op: OpCreate, Client: "intruder", Parent: d.Ino, Name: "x"})
		if r.Err != nil {
			t.Errorf("post-recouple err = %v", r.Err)
		}
	})
	if s.Metrics().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Metrics().Rejected)
	}
}

func TestDecoupleAllowLetsWritesThrough(t *testing.T) {
	eng, s := newTestServer()
	s.OpenSession("owner")
	s.OpenSession("other")
	run(t, eng, func(p runtime.Task) {
		s.Submit(p, &Request{Op: OpMkdir, Client: "owner", Parent: namespace.RootIno, Name: "mine", Mode: 0755})
		pol := &policy.Policy{
			Consistency: policy.ConsInvisible, Durability: policy.DurNone,
			AllocatedInodes: 100, Interfere: policy.InterfereAllow,
		}
		if _, _, err := decouple(p, s, "/mine", pol, "owner"); err != nil {
			t.Errorf("decouple: %v", err)
			return
		}
		d, _ := s.Store().Resolve("/mine")
		r := s.Submit(p, &Request{Op: OpCreate, Client: "other", Parent: d.Ino, Name: "x"})
		if r.Err != nil {
			t.Errorf("allow-policy create err = %v", r.Err)
		}
	})
}

func TestDecoupleErrors(t *testing.T) {
	eng, s := newTestServer()
	run(t, eng, func(p runtime.Task) {
		pol := policy.Default()
		if _, _, err := decouple(p, s, "/missing", pol, "c"); !errors.Is(err, namespace.ErrNotExist) {
			t.Errorf("decouple missing path err = %v", err)
		}
		if err := s.Post(p, &AttachMsg{Path: "/missing"}).(*AttachReply).Err; !errors.Is(err, namespace.ErrNotExist) {
			t.Errorf("recouple missing path err = %v", err)
		}
	})
}

func TestSessionOverheadSlowsOps(t *testing.T) {
	timeFor := func(sessions int) runtime.Time {
		eng := sim.NewEngine(1)
		obj := rados.New(eng, model.Default())
		s := NewCluster(eng, model.Default(), obj, 1).Rank(0)
		for i := 0; i < sessions; i++ {
			s.OpenSession(fmt.Sprintf("c%d", i))
		}
		var elapsed runtime.Time
		eng.Spawn("t", func(p runtime.Task) {
			start := p.Now()
			for i := 0; i < 100; i++ {
				s.Submit(p, &Request{Op: OpCreate, Client: "c0", Parent: namespace.RootIno, Name: fmt.Sprintf("f%d", i)})
			}
			elapsed = p.Now() - start
		})
		eng.RunAll()
		return elapsed
	}
	if timeFor(20) <= timeFor(1) {
		t.Fatal("20 sessions not slower than 1 session per op")
	}
}

func TestServiceTimeOpClasses(t *testing.T) {
	_, s := newTestServer()
	s.OpenSession("c0")
	if s.serviceTime(OpLookup) >= s.serviceTime(OpCreate) {
		t.Fatal("lookup not cheaper than create")
	}
}

func TestMergeCongestion(t *testing.T) {
	// Twenty journals landing at once must merge slower per event than
	// one journal (paper Fig 6a).
	perEventRate := func(jobs int) float64 {
		eng := sim.NewEngine(1)
		obj := rados.New(eng, model.Default())
		s := NewCluster(eng, model.Default(), obj, 1).Rank(0)
		const per = 5000
		g := eng.NewDomain("").NewGroup()
		for c := 0; c < jobs; c++ {
			c := c
			g.Go("merge", func(p runtime.Task) {
				events := make([]*journal.Event, 0, per)
				base := uint64(1<<41) + uint64(c)<<24
				events = append(events, &journal.Event{Type: journal.EvMkdir,
					Parent: uint64(namespace.RootIno), Name: fmt.Sprintf("d%d", c), Ino: base, Mode: 0755})
				for i := 1; i < per; i++ {
					events = append(events, &journal.Event{Type: journal.EvCreate,
						Parent: base, Name: fmt.Sprintf("f%d", i), Ino: base + uint64(i), Mode: 0644})
				}
				if _, err := s.VolatileApply(p, events, int64(per)*2500); err != nil {
					t.Errorf("merge %d: %v", c, err)
				}
			})
		}
		var total runtime.Time
		eng.Spawn("wait", func(p runtime.Task) { g.Wait(p); total = p.Now() })
		eng.RunAll()
		return float64(jobs*per) / total.Seconds()
	}
	one := perEventRate(1)
	twenty := perEventRate(20)
	if twenty >= one {
		t.Fatalf("20-journal merge rate %.0f/s not below single rate %.0f/s", twenty, one)
	}
	if twenty < 0.4*one {
		t.Fatalf("20-journal merge rate %.0f/s collapsed too far below single %.0f/s", twenty, one)
	}
}

func TestMergeCellsShareOneCostModel(t *testing.T) {
	// Blind, validated and convergent merge are one delivery loop with a
	// different per-event step, so the same conflict-free journal must
	// cost exactly the same simulated time and move the same counters in
	// all three steps — whether it arrives as a flat slice
	// (journal.CursorOver) or as the journal's own segmented cursor.
	const n = 700 // crosses two apply-run boundaries
	type outcome struct {
		elapsed           runtime.Time
		applied           int
		mergeJobs, merged uint64
	}
	merge := func(cell policy.Consistency, cursor bool) outcome {
		eng, s := newTestServer()
		j := journal.New(128)
		for _, ev := range streamEvents("f", 1<<41, n) {
			j.Append(ev)
		}
		var out outcome
		run(t, eng, func(p runtime.Task) {
			msg := &MergeMsg{NominalBytes: int64(n) * 2500, Cell: cell}
			if cursor {
				msg.Source = j.InlineCursor()
			} else {
				msg.Source = journal.CursorOver(j.Events())
			}
			start := p.Now()
			r := s.Post(p, msg).(*MergeReply)
			if r.Err != nil || len(r.Conflicts) != 0 {
				t.Errorf("%v merge = %+v", cell, r)
			}
			out.elapsed, out.applied = p.Now()-start, r.Applied
		})
		out.mergeJobs, out.merged = s.Metrics().MergeJobs, s.Metrics().Merged
		if _, err := s.Store().Resolve(fmt.Sprintf("/f%d", n-1)); err != nil {
			t.Errorf("%v: merged file missing: %v", cell, err)
		}
		return out
	}
	want := merge(policy.ConsWeak, false)
	if want.applied != n || want.mergeJobs != 1 || want.merged != n {
		t.Fatalf("blind merge = %+v", want)
	}
	for _, tc := range []struct {
		name   string
		cell   policy.Consistency
		cursor bool
	}{
		{"blind/cursor", policy.ConsWeak, true},
		{"speculative/slice", policy.ConsSpeculative, false},
		{"speculative/cursor", policy.ConsSpeculative, true},
		{"converge/slice", policy.ConsStrongEventual, false},
		{"converge/cursor", policy.ConsStrongEventual, true},
	} {
		if got := merge(tc.cell, tc.cursor); got != want {
			t.Errorf("%s = %+v, want the blind slice merge's %+v", tc.name, got, want)
		}
	}
}

func TestSpeculativeConflictsAreJournalIndices(t *testing.T) {
	// Rejected predictions come back as indices into the whole journal,
	// ascending, wherever apply-run boundaries fall and whichever form
	// the journal arrived in — the client undoes exactly these ops.
	const n = 600
	taken := []int{3, 255, 256, 599}
	for _, cursor := range []bool{false, true} {
		eng, s := newTestServer()
		evs := streamEvents("f", 1<<41, n)
		j := journal.New(100)
		for _, ev := range evs {
			j.Append(ev)
		}
		run(t, eng, func(p runtime.Task) {
			for _, idx := range taken { // another client got there first
				s.Submit(p, &Request{Op: OpCreate, Client: "other", Parent: namespace.RootIno, Name: evs[idx].Name, Mode: 0644})
			}
			msg := &MergeMsg{Cell: policy.ConsSpeculative, Source: journal.CursorOver(evs)}
			if cursor {
				msg.Source = j.InlineCursor()
			}
			r := s.Post(p, msg).(*MergeReply)
			if r.Err != nil || r.Applied != n-len(taken) || !reflect.DeepEqual(r.Conflicts, taken) {
				t.Errorf("cursor=%v: applied %d, conflicts %v, err %v; want %d, %v", cursor, r.Applied, r.Conflicts, r.Err, n-len(taken), taken)
			}
		})
		if got := s.Metrics().MergeConflicts; got != uint64(len(taken)) {
			t.Errorf("cursor=%v: conflict counter = %d, want %d", cursor, got, len(taken))
		}
	}
}

func TestOpString(t *testing.T) {
	if OpCreate.String() != "create" || Op(99).String() == "" {
		t.Fatal("op strings broken")
	}
}

func TestMetricsSnapshot(t *testing.T) {
	eng, s := newTestServer()
	s.OpenSession("c0")
	run(t, eng, func(p runtime.Task) {
		s.Submit(p, &Request{Op: OpCreate, Client: "c0", Parent: namespace.RootIno, Name: "f"})
	})
	m := s.Metrics()
	m.Requests = 0 // mutate the copy
	if s.Metrics().Requests != 1 {
		t.Fatal("Metrics did not return a snapshot")
	}
	_ = time.Second
}
