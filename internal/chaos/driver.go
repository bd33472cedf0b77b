package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"cudele"
	"cudele/internal/client"
	"cudele/internal/journal"
	"cudele/internal/mds"
	"cudele/internal/monitor"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/sim"
	"cudele/internal/transport"
)

// forceViolation is a test hook: when set, finalVerify records one
// synthetic violation so tests can exercise the failure path — flight
// dump capture and report rendering — without hunting for a genuinely
// broken seed.
var forceViolation bool

// dumpEvents is how many of each track's last events a failing
// schedule's flight dump shows: spans and points of the whole trace.
const dumpEvents = 128

// Workload subtrees. Both are created and made durable (SaveStore)
// before any fault can fire, so recovery always has roots to attach to.
const (
	mainPath = "/chaos/main"
	bgPath   = "/chaos/bg"
)

// chaosGrant is the decoupled inode grant: large enough that no
// schedule exhausts it, explicit so the budget invariant is exact.
const chaosGrant = 4096

// parentRef is a directory the workload may create into.
type parentRef struct {
	ino  namespace.Ino
	path string
}

// maxParents caps how many directories the workload creates into, so
// candidate sets stay small and journals stay self-contained without
// deep nesting.
const maxParents = 6

// driver runs one chaos schedule: setup, the random-op workload with
// crash faults quantized to op boundaries, background merge load, and
// the final contract verification.
type driver struct {
	plan *Plan
	cell *cell          // the plan's row of the cell table
	pol  *policy.Policy // the main subtree's registration
	cl   *cudele.Cluster
	srv  *mds.Server
	c    *cudele.Client
	bg   *cudele.Client
	rng  *rand.Rand
	o    *oracle
	rec  *cudele.Recorder
	res  Result

	inj     *rados.FaultInjector
	parents []parentRef // where creates may land (cell.place); [0] is the subtree root
	nameSeq int
	bgSeq   int
	bgRoot  namespace.Ino
	bgSet   map[string]uint64 // background client's acked updates

	pending    []sim.Fault // faults waiting for the next op boundary
	bgDone     runtime.Signal
	migDone    runtime.Signal
	mdsCrashed bool

	// stolen is the names already taken by an interfering RPC.
	stolen map[string]bool
	// merged and rolledBack are the last client merge's batch and its
	// rejected indices, for the exact-rollback contract.
	merged     []update
	rolledBack []int

	// unlinkable is the file names created since the last merge that the
	// client image still renders; only a mix with opUnlink draws from it.
	unlinkable []string
	// The permutation replay's inputs: the captured merge batches, the
	// root-chain skeleton the replay rebuilds, and whether a partial or
	// post-migration re-merge invalidated the live-image comparison.
	batches       [][]*journal.Event
	chain         []chainEnt
	noLiveCompare bool

	// seenIno is every inode number ever acked, by path, and reissued the
	// acks that repeated one — the no-duplicate-inode contract. A crash
	// must never make a client or MDS hand out an inode a second time: the
	// first copy may be durable in a persisted journal, so reissue
	// silently aliases two files.
	seenIno  map[uint64]string
	reissued []string
}

func newDriver(plan *Plan) *driver {
	cfg := cudele.DefaultConfig()
	if plan.Chunked {
		cfg.MergeChunkEvents = 8
		cfg.MergeWindowChunks = 2
		cfg.MergeAdmitMax = 2
	}
	opts := []cudele.Option{cudele.WithSeed(plan.Seed), cudele.WithConfig(cfg)}
	if plan.Migrate {
		// Migration schedules need a second rank to export to.
		opts = append(opts, cudele.WithMDSRanks(2))
	}
	cl := cudele.NewCluster(opts...)
	d := &driver{
		plan: plan,
		cell: &cells[plan.Cons],
		pol: &policy.Policy{
			Consistency:     plan.Cons,
			Durability:      plan.Dur,
			AllocatedInodes: chaosGrant,
			Interfere:       policy.InterfereAllow,
		},
		cl:      cl,
		srv:     cl.MDS(),
		c:       cl.NewClient("chaos-main"),
		rng:     rand.New(rand.NewSource(plan.Seed ^ 0x6368616f73)), // decorrelated from plan generation
		o:       newOracle(plan.Cons == policy.ConsStrongEventual),
		bgSet:   make(map[string]uint64),
		seenIno: make(map[uint64]string),
		res: Result{
			Seed:     plan.Seed,
			Cell:     plan.Cell(),
			Ops:      plan.Ops,
			PlanText: plan.String(),
		},
	}
	if plan.Background {
		d.bg = cl.NewClient("chaos-bg")
	}
	// Every schedule is traced: recording never touches virtual time or
	// the engine's rand stream, and the trace's tail is dumped only when
	// a contract breaks.
	d.rec = cl.EnableTracing()
	return d
}

func (d *driver) run() Result {
	d.cl.Go("chaos.main", d.main)
	d.res.VirtualSec = d.cl.RunAll()
	if d.inj != nil {
		d.res.WriteFaults = d.inj.Fired()
	}
	if err := d.cl.Runtime().LeakCheck(); err != nil {
		d.violate("%v", err)
	}
	if !d.res.Passed() {
		d.res.FlightDump = d.rec.Dump(dumpEvents)
	}
	d.cl.Runtime().Shutdown()
	return d.res
}

func (d *driver) violate(format string, args ...any) {
	if len(d.res.Violations) >= maxViolations {
		return
	}
	msg := fmt.Sprintf(format, args...)
	d.res.Violations = append(d.res.Violations, msg)
	// Stamp the violation into the trace so the dump shows it in sequence
	// with the ops and faults that preceded it.
	d.rec.Record(int64(d.cl.Runtime().Now()), "chaos", "oracle", "violation", msg)
}

// mds returns the rank currently owning the main workload subtree — the
// server every oracle touchpoint (visibility checks, journal flushes,
// recovered-journal merges, namespace sweeps) must talk to. Ownership is
// fixed at rank 0 unless the plan schedules migrations.
func (d *driver) mds() *mds.Server {
	meta := d.cl.Metadata()
	return meta.Rank(meta.Table().RankFor(mainPath))
}

// midMigration reports whether the main subtree is mid-handoff — frozen,
// streaming, or between the source's prune and the table flip. In that
// window no single store is authoritative (the source may already be
// pruned while routing still points at it), so store-reading checks
// defer to the next op boundary after the handoff commits or aborts.
func (d *driver) midMigration() bool {
	st, ok := d.cl.Monitor().Subtree(mainPath)
	return ok && st.State != monitor.SubtreeOwned
}

// streamOn reports whether the owning rank journals the main subtree's
// RPC updates: whether its registered composition streams, the rank's
// own reading of the mechanism table.
func (d *driver) streamOn() bool { return d.pol.Streams() }

// main is the schedule's script process.
func (d *driver) main(p runtime.Task) {
	if !d.setup(p) {
		return
	}
	if d.plan.Background {
		d.startBG()
	}
	if d.plan.Migrate {
		d.startMigrator()
	}
	for i := 0; i < d.plan.Ops; i++ {
		d.drain(p)
		if len(d.res.Violations) >= maxViolations {
			break
		}
		d.step(p)
	}
	d.drain(p)
	// Run past every scheduled fault so late crashes still get their
	// recovery verified.
	if last := d.plan.Faults.Last(); last > 0 {
		if now := p.Now(); now <= last {
			p.Sleep(runtime.Duration(last-now) + runtime.Duration(1e6))
		}
	}
	d.drain(p)
	if d.bgDone != nil {
		d.bgDone.Wait(p)
	}
	if d.migDone != nil {
		d.migDone.Wait(p)
	}
	d.finalVerify(p)
}

// setup builds the workload subtrees, makes their roots durable,
// registers the decoupled policies, and only then arms the fault
// injectors, moving the plan's crash and migration times on by the
// clock — so setup itself always succeeds and the calibrated baseline of
// the protocol stack is what the faults strike.
func (d *driver) setup(p runtime.Task) bool {
	if _, err := d.c.MkdirAll(p, mainPath, 0o755); err != nil {
		d.violate("setup: mkdir %s: %v", mainPath, err)
		return false
	}
	if d.plan.Background {
		if _, err := d.c.MkdirAll(p, bgPath, 0o755); err != nil {
			d.violate("setup: mkdir %s: %v", bgPath, err)
			return false
		}
	}
	if err := d.srv.SaveStore(p); err != nil {
		d.violate("setup: save store: %v", err)
		return false
	}
	if _, err := d.cl.DecouplePolicy(p, d.c, mainPath, d.pol); err != nil {
		d.violate("setup: decouple %s: %v", mainPath, err)
		return false
	}
	root, err := d.c.DecoupledRoot()
	if err != nil {
		d.violate("setup: decoupled root: %v", err)
		return false
	}
	d.parents = []parentRef{{root, mainPath}}
	if !d.recordChain() {
		return false
	}

	if d.plan.Background {
		bpol := &policy.Policy{
			Consistency:     policy.ConsWeak,
			Durability:      policy.DurNone,
			AllocatedInodes: chaosGrant,
			Interfere:       policy.InterfereAllow,
		}
		if _, err := d.cl.DecouplePolicy(p, d.bg, bgPath, bpol); err != nil {
			d.violate("setup: decouple %s: %v", bgPath, err)
			return false
		}
		if d.bgRoot, err = d.bg.DecoupledRoot(); err != nil {
			d.violate("setup: background root: %v", err)
			return false
		}
	}

	tornCommit := d.plan.Migrate && d.plan.TornCommit
	if d.plan.WriteErrProb > 0 || d.plan.TornProb > 0 || tornCommit {
		d.inj = rados.NewFaultInjector(d.plan.Seed ^ 0x5eed)
		d.inj.WriteErrorProb = d.plan.WriteErrProb
		d.inj.TornWriteProb = d.plan.TornProb
		d.inj.MaxFaults = d.plan.MaxWriteFaults
		if tornCommit && d.inj.TornWriteProb == 0 {
			// Cells that never persist globally still tear migration
			// records; give the injector a budget for that alone.
			d.inj.TornWriteProb = 0.5
			d.inj.MaxFaults = 1
		}
		// Only Global Persist targets — plus, for torn-commit schedules,
		// the export-commit record pool. MDS segment and store writes stay
		// fault-free so a FlushJournal ack (and an ExportSave ack) remains
		// a sound durability point for the oracle.
		d.inj.Match = func(oid rados.ObjectID) bool {
			if oid.Pool == client.ClientJournalPool {
				return true
			}
			return tornCommit && oid.Pool == mds.MigrationPool
		}
		d.cl.Objects().SetFaults(d.inj)
	}
	if d.plan.Transport {
		d.srv.InjectFaults(transport.NewFaultInterceptor(d.plan.Seed^0x77697265, func(msg any) bool {
			// Double delivery is only injected for read-only RPCs, whose
			// handlers are idempotent by construction.
			req, ok := msg.(*mds.Request)
			return ok && !req.Op.Mutates()
		}))
	}
	// The plan's crash and migration times count from here, so each
	// strikes the workload rather than all of them its first op.
	end := sim.Time(p.Now())
	for i := range d.plan.Faults.Faults {
		d.plan.Faults.Faults[i].At += end
	}
	for i := range d.plan.MigrateAt {
		d.plan.MigrateAt[i] += end
	}
	d.plan.Faults.Arm(d.cl.Engine(), func(f sim.Fault) {
		d.pending = append(d.pending, f)
	})
	return true
}

// drain applies every fault that has fired since the last op boundary —
// crash plus immediate restart and recovery, one at a time — then
// checks the op-boundary contracts.
func (d *driver) drain(p runtime.Task) {
	for len(d.pending) > 0 {
		f := d.pending[0]
		d.pending = d.pending[1:]
		d.res.CrashFaults++
		d.rec.Record(int64(p.Now()), "chaos", "fault", f.Kind, f.Target)
		switch f.Kind {
		case FaultClientCrash:
			d.crashClient(p)
		case FaultMDSCrash:
			d.crashMDS(p)
		default:
			d.violate("unknown fault kind %q", f.Kind)
		}
	}
	d.check(atBoundary)
}

// crashClient kills and restarts the main client. DurLocal's contract
// is exercised here: an acked Local Persist must restore exactly the
// persisted journal.
func (d *driver) crashClient(p runtime.Task) {
	d.c.Crash(p)
	d.o.clientCrash()
	d.parents = d.parents[:1]
	// The crash wiped the client-local image: names recovered into the
	// journal are no longer unlinkable (the image no longer renders them).
	d.unlinkable = nil
	if err := d.c.Restart(p); err != nil {
		d.violate("client restart: %v", err)
		return
	}
	if d.o.hasLocal {
		n, err := d.c.RecoverLocal(p)
		if err != nil {
			d.violate("recover local: %v", err)
			return
		}
		if n != len(d.o.localImage) {
			d.violate("recover local: %d events, want %d", n, len(d.o.localImage))
			return
		}
		d.o.recoverLocalOK()
	}
}

// crashMDS kills the rank owning the main subtree and restarts it
// through the monitor, which hands it back every registration whose root
// it holds, with the grants the client already holds (a fresh Decouple
// would, rightly, be handed a range never issued before). On migration
// schedules the crash follows ownership — a crash mid-handoff strikes
// the source (routing has not flipped yet), one after commit strikes the
// importer.
func (d *driver) crashMDS(p runtime.Task) {
	d.mdsCrashed = true
	srv, rank := d.mds(), d.cl.Metadata().Table().RankFor(mainPath)
	srv.Crash(p)
	err := d.cl.Monitor().Restart(p, rank)
	d.o.mdsCrash(func(u update) bool {
		in, err := srv.Store().Resolve(u.path)
		return err == nil && uint64(in.Ino) == u.ino
	})
	if err != nil {
		d.violate("mds restart: %v", err)
		return
	}
	// The client survived but its session and caps died with the MDS.
	d.c.Unmount(p)
	d.c.Mount(p)
	if d.plan.Migrate {
		// Remounting wiped the client's ino-to-path route hints; re-walk
		// the workload root so ino-addressed RPCs route by path again.
		// Without this they fall back to the default rank, which may have
		// exported the subtree away.
		if _, err := d.c.Resolve(p, mainPath); err != nil {
			d.violate("re-resolve %s after mds restart: %v", mainPath, err)
		}
	}
	if d.cell.place == rpcDirs {
		d.parents = d.parents[:1] // RPC-made directories may have died with the rank
	}
}

// step runs one workload operation drawn from the cell's weighted mix.
func (d *driver) step(p runtime.Task) {
	roll := d.rng.Float64()
	for _, sl := range d.cell.mix {
		if roll < sl.below {
			sl.op(d, p)
			return
		}
	}
}

func (d *driver) nextName(prefix string) string {
	name := fmt.Sprintf("%s%06d", prefix, d.nameSeq)
	d.nameSeq++
	return name
}

// ackIno records an acked grant inode number and notes any reissue for
// the no-duplicate-inode contract. Only decoupled-grant inos carry the
// strict invariant: their first ack may be durable in a client journal
// or persisted image the MDS cannot see, so a rewound allocation cursor
// silently aliases two files. Server-assigned (RPC) inos are exempt —
// the store allocator skips every inode that survives recovery, so it
// can only recycle numbers whose updates were wholly lost, exactly like
// a real inode table.
func (d *driver) ackIno(ino uint64, path string) {
	if prev, dup := d.seenIno[ino]; dup {
		d.reissued = append(d.reissued,
			fmt.Sprintf("inode %d acked for %s was already acked for %s", ino, path, prev))
		return
	}
	d.seenIno[ino] = path
}

func (d *driver) checkInoReuse() {
	for _, msg := range d.reissued {
		d.violate("%s", msg)
	}
	d.reissued = nil
}

func (d *driver) opCreate(p runtime.Task) { d.create(p, false) }
func (d *driver) opMkdir(p runtime.Task)  { d.create(p, true) }

// create makes one file or directory the way the cell does: into the
// decoupled journal, or by RPC, under a parent the cell's placement
// allows. Past maxParents directories a mkdir becomes a create.
func (d *driver) create(p runtime.Task, dir bool) {
	c, rpc := d.cell, d.cell.place == rpcDirs
	dir = dir && len(d.parents) < maxParents
	par := d.parents[0]
	if c.place != rootOnly {
		par = d.parents[d.rng.Intn(len(d.parents))]
	}
	kind, tag, mode := "create", c.fileTag, uint32(0o644)
	call := d.c.LocalCreate
	if rpc {
		call = d.c.Create
	}
	if dir {
		kind, tag, mode = "mkdir", c.dirTag, 0o755
		call = d.c.LocalMkdir
		if rpc {
			call = d.c.Mkdir
		}
	}
	name := d.nextName(tag)
	ino, err := call(p, par.ino, name, mode)
	if err != nil {
		d.violate("%s %s %s/%s: %v", c.label, kind, par.path, name, err)
		return
	}
	u := update{
		path: par.path + "/" + name, ino: uint64(ino),
		parent: uint64(par.ino), name: name, dir: dir, granted: !rpc,
	}
	if rpc {
		d.o.ackRPC(u, d.streamOn())
	} else {
		d.ackIno(u.ino, u.path)
		d.o.ackJournal(u, c.provisional)
	}
	switch {
	case !dir:
		d.unlinkable = append(d.unlinkable, name)
	case c.place != rootOnly:
		d.parents = append(d.parents, parentRef{ino, u.path})
	}
}

// opPersist runs the durability mechanism of the plan's second axis.
func (d *driver) opPersist(p runtime.Task) {
	switch d.plan.Dur {
	case policy.DurLocal:
		if err := d.c.LocalPersist(p); err != nil {
			d.violate("local persist: %v", err)
			return
		}
		d.o.localPersistOK()
	case policy.DurGlobal:
		d.opGlobalPersist(p)
	default:
		// DurNone has no persistence mechanism: the slot falls back to the
		// cell's own create.
		d.opCreate(p)
	}
}

func (d *driver) opGlobalPersist(p runtime.Task) {
	if err := d.c.GlobalPersist(p); err != nil {
		if errors.Is(err, rados.ErrIO) {
			// Injected storage fault: the persist was not acked, so
			// nothing new is guaranteed — and the old image may be gone.
			d.o.globalPersistFail()
			return
		}
		d.violate("global persist: %v", err)
		return
	}
	d.o.globalPersistOK()
}

// opFlush makes the RPC updates so far durable in the MDS journal; a
// cell that does not journal them spends the slot on a create.
func (d *driver) opFlush(p runtime.Task) {
	if !d.streamOn() {
		d.opCreate(p)
		return
	}
	d.mds().FlushJournal(p)
	d.o.flushOK()
}

// predict is the rejected set the oracle expects from merging batch: the
// mirror of the MDS's validation where the cell validates, nothing where
// it merges blind or through the CRDT.
func (d *driver) predict(batch []update) []int {
	if d.plan.Cons != policy.ConsSpeculative {
		return nil
	}
	return d.o.specMirror(batch, mainPath)
}

// opMerge has the client merge its journal in the registered cell and
// holds the merge to the contract: the rejected set equals the oracle's
// prediction, every other op applied, and the post-merge contracts hold.
func (d *driver) opMerge(p runtime.Task) {
	batch, expect := d.o.journal, d.predict(d.o.journal)
	var evs []*journal.Event
	if d.cell.captures {
		var err error
		if evs, err = d.c.JournalEvents(); err != nil {
			d.violate("%v merge: snapshot journal: %v", d.plan.Cons, err)
			return
		}
	}
	applied, rejected, err := d.c.Merge(p)
	d.res.Merges++
	if err != nil {
		d.violate("%v merge: %v", d.plan.Cons, err)
		return
	}
	if !slices.Equal(rejected, expect) {
		d.violate("%v merge rejected %v, oracle predicted %v", d.plan.Cons, rejected, expect)
		return
	}
	if applied != len(batch)-len(rejected) {
		d.violate("%v merge: applied %d, want %d of %d events",
			d.plan.Cons, applied, len(batch)-len(rejected), len(batch))
	}
	if len(evs) > 0 {
		d.batches = append(d.batches, evs)
	}
	d.o.land(batch, rejected, true)
	d.o.journal = nil
	d.merged, d.rolledBack = batch, rejected
	d.parents = d.parents[:1]
	d.unlinkable = nil
	d.check(atMerge)
}

// startBG spawns the background merger: a second decoupled client
// pushing rounds of creates through the merge scheduler, concurrent
// with the main workload, to exercise admission slots and fairness
// under chaos.
func (d *driver) startBG() {
	d.bgDone = d.cl.Runtime().NewSignal()
	d.cl.Go("chaos.bg", func(p runtime.Task) {
		defer d.bgDone.Fire(nil)
		d.runBG(p)
	})
}

func (d *driver) runBG(p runtime.Task) {
	for round := 0; round < 6; round++ {
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("b%06d", d.bgSeq)
			d.bgSeq++
			ino, err := d.bg.LocalCreate(p, d.bgRoot, name, 0o644)
			if err != nil {
				d.violate("background create %s: %v", name, err)
				return
			}
			d.ackIno(uint64(ino), bgPath+"/"+name)
			d.bgSet[bgPath+"/"+name] = uint64(ino)
		}
		if _, _, err := d.bg.Merge(p); err != nil {
			d.violate("background merge: %v", err)
			return
		}
		d.res.Merges++
		p.Sleep(runtime.Duration(200e3))
	}
}

// startMigrator spawns the migration schedule: at each planned time the
// main subtree is exported to the other rank, concurrent with the
// workload, crash faults, and storage faults. Aborted handoffs (frozen
// merges in flight, a rank crashing mid-stream, a torn commit record)
// are tolerated — the contract under test is that every policy guarantee
// survives the handoff or its abort, not that every handoff commits.
func (d *driver) startMigrator() {
	d.migDone = d.cl.Runtime().NewSignal()
	d.cl.Go("chaos.migrate", func(p runtime.Task) {
		defer d.migDone.Fire(nil)
		meta := d.cl.Metadata()
		for _, at := range d.plan.MigrateAt {
			if now := p.Now(); now < at {
				p.Sleep(runtime.Duration(at - now))
			}
			src := meta.Table().RankFor(mainPath)
			dst := 1 - src
			if err := d.cl.Migrate(p, mainPath, dst); err != nil {
				d.rec.Record(int64(p.Now()), "chaos", "migrate", "abort", err.Error())
				continue
			}
			d.res.Migrations++
			d.rec.Record(int64(p.Now()), "chaos", "migrate", "commit",
				fmt.Sprintf("%s rank %d -> %d", mainPath, src, dst))
		}
	})
}

// checkVisible asserts every update the oracle says is merged/visible
// resolves in the owning rank's store with the acked inode (the
// ConsStrong and post-merge contract) — migrations must move the whole
// visible set with ownership. Pure in-memory reads: no simulated time.
func (d *driver) checkVisible() {
	if d.midMigration() {
		return
	}
	store := d.mds().Store()
	for _, path := range sortedKeys(d.o.mdsMem) {
		u := d.o.mdsMem[path]
		in, err := store.Resolve(path)
		if err != nil {
			d.violate("visible update %s missing: %v", path, err)
			continue
		}
		if d.cell.captures && u.dir {
			continue // structural identity: presence only
		}
		if uint64(in.Ino) != u.ino {
			d.violate("visible update %s has ino %d, want %d", path, uint64(in.Ino), u.ino)
		}
	}
}

// checkInvisible asserts no unmerged update of an invisible subtree has
// leaked into the global namespace.
func (d *driver) checkInvisible() {
	if d.midMigration() {
		return
	}
	store := d.mds().Store()
	for _, path := range sortedKeys(d.o.pset) {
		if _, merged := d.o.mdsMem[path]; merged {
			continue
		}
		if _, err := store.Resolve(path); err == nil {
			d.violate("invisible update %s leaked into the global namespace", path)
		}
	}
}

// finalVerify is the end-of-schedule contract check: recover everything
// each policy guarantees, then run every end-of-schedule contract —
// phantoms, grant violations, structural damage, leaked merge slots.
func (d *driver) finalVerify(p runtime.Task) {
	if forceViolation {
		d.violate("forced violation (test hook) after op %06d", d.nameSeq-1)
	}
	d.check(atBoundary)
	if len(d.o.journal) > 0 {
		// Persist the tail so the global image covers the whole run, then
		// merge the live journal (journals are self-contained, so this
		// must succeed) through the cell's own merge path.
		if d.plan.Dur == policy.DurGlobal {
			d.opGlobalPersist(p)
		}
		d.opMerge(p)
	}
	if d.streamOn() {
		// DurGlobal probe for the streaming cell: flush, lose the owning
		// rank, and demand every flush-acked update come back from the
		// recovered journal segments (and, post-migration, the saved
		// subtree image).
		d.opFlush(p)
		d.crashMDS(p)
	}
	d.verifyGlobal(p)
	d.check(atEnd)
}

// verifyGlobal fetches the client's journal image back from the object
// store and re-merges it on the owning rank, asserting DurGlobal's
// contract: an acked Global Persist must read back as exactly the acked
// update sequence and re-merge as the oracle predicts; after a failed
// persist the image may be torn or stale, but whatever recovers must stay
// inside the acked-update set (the phantom walk checks that half).
func (d *driver) verifyGlobal(p runtime.Task) {
	if d.o.global == globalNone {
		return
	}
	evs, err := d.c.FetchGlobalJournal(p, d.c.Name())
	remerge := func() *mds.MergeReply {
		return d.mds().Post(p, &mds.MergeMsg{Source: journal.CursorOver(evs), Cell: d.plan.Cons,
			NominalBytes: int64(len(evs)) * int64(d.cl.Config().JournalEventBytes),
		}).(*mds.MergeReply)
	}
	if d.o.global == globalDirty {
		if err != nil || len(evs) == 0 {
			return // unacked image may be unreadable — allowed
		}
		// Tolerate replay errors too: a stale image can reference
		// directories the crashed MDS no longer holds, and validation
		// rejects what no longer applies. Partial applies are bounded by
		// the phantom walk.
		r := remerge()
		d.captureRemerge(evs, r.Err == nil && r.Applied == len(evs))
		return
	}
	if err != nil {
		d.violate("fetch global journal: %v", err)
		return
	}
	if msg := d.o.matchGlobal(evs); msg != "" {
		d.violate("recovered global journal: %s", msg)
		return
	}
	// Ops already applied or rejected before must re-reject; ops the
	// cluster lost must be re-admitted.
	expect := d.predict(d.o.globalImage)
	r := remerge()
	if r.Err != nil {
		d.violate("re-merge recovered global journal: %v", r.Err)
		return
	}
	if !slices.Equal(r.Conflicts, expect) {
		d.violate("re-merged global journal rejected %v, oracle predicted %v", r.Conflicts, expect)
		return
	}
	if r.Applied != len(evs)-len(r.Conflicts) {
		d.violate("re-merged global journal: applied %d, want %d of %d events",
			r.Applied, len(evs)-len(r.Conflicts), len(evs))
		return
	}
	d.captureRemerge(evs, true)
	if d.cell.adopts {
		d.o.land(d.o.globalImage, r.Conflicts, false)
	}
}

// captureRemerge adds a re-merged global image to the captured batches
// of a cell that replays them.
func (d *driver) captureRemerge(evs []*journal.Event, complete bool) {
	switch {
	case !d.cell.captures:
	case !complete:
		// A partial replay left state the captured batches don't cover;
		// the permutation check stays sound, the live-image comparison
		// does not.
		d.noLiveCompare = true
	case len(evs) > 0:
		d.batches = append(d.batches, evs)
		// The resolver's tombstone summaries are rank-local: after a
		// migration a re-merged image can resurrect an entry whose
		// tombstone stayed behind, which the full-history replay keeps
		// dead. Convergence across permutations still holds; the live
		// comparison does not.
		if d.plan.Migrate {
			d.noLiveCompare = true
		}
	}
}

// checkBG asserts the background client's merged updates are all
// visible. Skipped if the MDS ever crashed: background updates are
// volatile merges (ConsWeak/DurNone) and may legitimately die with it.
func (d *driver) checkBG() {
	if d.mdsCrashed {
		return
	}
	store := d.srv.Store()
	for _, path := range sortedKeys(d.bgSet) {
		in, err := store.Resolve(path)
		if err != nil {
			d.violate("background update %s missing: %v", path, err)
			continue
		}
		if uint64(in.Ino) != d.bgSet[path] {
			d.violate("background update %s has ino %d, want %d",
				path, uint64(in.Ino), d.bgSet[path])
		}
	}
}

// checkPhantoms sweeps the final namespace: no entry outside the
// acked-update set, every entry under its acked inode.
func (d *driver) checkPhantoms() {
	d.walkSubtree(d.mds().Store(), mainPath, func(path string, ino uint64) (uint64, bool) {
		u, ok := d.o.pset[path]
		if d.cell.captures && u.dir {
			return ino, ok // structural identity: presence only
		}
		return u.ino, ok
	})
	if d.plan.Background {
		// The background subtree is never migrated; it stays on rank 0.
		d.walkSubtree(d.srv.Store(), bgPath, func(path string, _ uint64) (uint64, bool) {
			ino, ok := d.bgSet[path]
			return ino, ok
		})
	}
}

// checkGrants asserts every granted inode lies inside its
// registration's range.
func (d *driver) checkGrants() {
	inRange := func(what, path string, ino uint64, subtree string) {
		e, _ := d.cl.Monitor().Lookup(subtree)
		if lo, hi := e.Policy.GrantLo, e.Policy.GrantLo+e.Policy.GrantN; ino < lo || ino >= hi {
			d.violate("%s %s ino %d outside grant [%d,%d)", what, path, ino, lo, hi)
		}
	}
	for _, path := range sortedKeys(d.o.pset) {
		if u := d.o.pset[path]; u.granted {
			inRange("update", path, u.ino, mainPath)
		}
	}
	if d.plan.Background {
		for _, path := range sortedKeys(d.bgSet) {
			inRange("background update", path, d.bgSet[path], bgPath)
		}
	}
}

// checkStores asserts every rank's store is structurally clean.
func (d *driver) checkStores() {
	for r := 0; r < d.cl.Metadata().Ranks(); r++ {
		var problems []string
		for _, prob := range d.cl.Metadata().Rank(r).Store().Check() {
			problems = append(problems, prob.String())
		}
		sort.Strings(problems)
		for _, prob := range problems {
			d.violate("store check (rank %d): %s", r, prob)
		}
	}
}

// checkMergeQueue asserts no rank still accounts a merge job.
func (d *driver) checkMergeQueue() {
	for r := 0; r < d.cl.Metadata().Ranks(); r++ {
		if q := d.cl.Metadata().Rank(r).MergeQueue(); q != 0 {
			d.violate("merge queue not drained: rank %d holds %d jobs still accounted", r, q)
		}
	}
}

// walkSubtree walks one subtree of the real store and demands every
// entry below the root be an acked update with a matching inode. The
// lookup callback receives the rendered inode so cells with structural
// directory identity can accept it as-is.
func (d *driver) walkSubtree(store *namespace.Store, rootPath string,
	lookup func(path string, ino uint64) (uint64, bool)) {
	root, err := store.Resolve(rootPath)
	if err != nil {
		d.violate("subtree root %s missing: %v", rootPath, err)
		return
	}
	_ = store.Walk(root.Ino, func(path string, in *namespace.Inode) error {
		if path == rootPath {
			return nil
		}
		want, ok := lookup(path, uint64(in.Ino))
		if !ok {
			d.violate("phantom entry %s (ino %d)", path, uint64(in.Ino))
			return nil
		}
		if want != uint64(in.Ino) {
			d.violate("entry %s has ino %d, want %d", path, uint64(in.Ino), want)
		}
		return nil
	})
}
