package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"cudele"
	"cudele/internal/client"
	"cudele/internal/journal"
	"cudele/internal/mds"
	"cudele/internal/namespace"
	"cudele/internal/obs"
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

// registration remembers one subtree registration so an MDS
// crash+restart can re-attach it and assert the grant is identical
// (re-attach order determines the grant, so replaying registrations in
// original order must reproduce it exactly).
type registration struct {
	path  string
	pol   *policy.Policy
	owner string
	lo    namespace.Ino
	n     uint64
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
	cl   *cudele.Cluster
	srv  *mds.Server
	c    *cudele.Client
	bg   *cudele.Client
	rng  *rand.Rand
	o    *oracle
	fl   *obs.Flight
	res  Result

	inj     *rados.FaultInjector
	regs    []registration
	cands   []parentRef // decoupled-journal parents: root + current-journal mkdirs
	scands  []parentRef // strong (RPC) parents: root + post-crash mkdirs
	nameSeq int
	bgSeq   int
	bgRoot  namespace.Ino
	bgSet   map[string]uint64 // background client's acked updates

	pending    []sim.Fault // faults waiting for the next op boundary
	bgDone     runtime.Signal
	migDone    runtime.Signal
	mdsCrashed bool

	// Speculative-cell state: names already taken by an interfering RPC.
	stolen map[string]bool

	// Strong-eventual-cell state: unlink candidates (names created since
	// the last merge), the captured merge batches for the permutation
	// replay, the root-chain skeleton the replay rebuilds, and whether a
	// partial dirty-image replay invalidated the live-image comparison.
	seLive      []string
	seSegs      [][]*journal.Event
	seChain     []seChainEnt
	seNoCompare bool

	// seenIno is every inode number ever acked, by path — the
	// no-duplicate-inodes invariant. A crash must never make a client or
	// MDS hand out an inode a second time: the first copy may be durable
	// in a persisted journal, so reissue silently aliases two files.
	seenIno map[uint64]string
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
		// Migration schedules need a second rank to export to. Non-migrate
		// plans keep the single-rank cluster so their schedules stay
		// byte-identical with earlier harness versions.
		opts = append(opts, cudele.WithMDSRanks(2))
	}
	cl := cudele.NewCluster(opts...)
	d := &driver{
		plan:    plan,
		cl:      cl,
		srv:     cl.MDS(),
		c:       cl.NewClient("chaos-main"),
		rng:     rand.New(rand.NewSource(plan.Seed ^ 0x6368616f73)), // decorrelated from plan generation
		o:       newOracle(),
		bgSet:   make(map[string]uint64),
		seenIno: make(map[uint64]string),
		res: Result{
			Seed:     plan.Seed,
			Cycle:    plan.Cycle,
			Cell:     plan.Cell(),
			Ops:      plan.Ops,
			PlanText: plan.String(),
		},
	}
	if plan.Background {
		d.bg = cl.NewClient("chaos-bg")
	}
	// The flight recorder rides along on every schedule: fixed-size rings
	// that never touch virtual time or the engine's rand stream, dumped
	// only when a contract breaks.
	d.fl = cl.EnableFlightRecorder(obs.DefaultFlightEvents)
	return d
}

func (d *driver) run() Result {
	d.cl.Go("chaos.main", d.main)
	d.res.VirtualSec = d.cl.RunAll()
	if d.inj != nil {
		d.res.WriteFaults = d.inj.Fired()
	}
	if err := d.cl.Engine().LeakCheck(); err != nil {
		d.violate("%v", err)
	}
	if !d.res.Passed() {
		d.res.FlightDump = d.fl.Dump()
	}
	d.cl.Engine().Shutdown()
	return d.res
}

func (d *driver) violate(format string, args ...any) {
	if len(d.res.Violations) >= maxViolations {
		return
	}
	msg := fmt.Sprintf(format, args...)
	d.res.Violations = append(d.res.Violations, msg)
	// Stamp the violation into the ring so the dump shows it in sequence
	// with the ops and faults that preceded it.
	d.fl.Record(int64(d.cl.Runtime().Now()), "chaos", "oracle", "violation", msg)
}

func (d *driver) strong() bool { return d.plan.Cons == policy.ConsStrong }

// mds returns the rank currently owning the main workload subtree — the
// server every oracle touchpoint (visibility checks, journal flushes,
// recovered-journal merges, namespace sweeps) must talk to. Ownership is
// fixed at rank 0 unless the plan schedules migrations.
func (d *driver) mds() *mds.Server {
	if !d.plan.Migrate {
		return d.srv
	}
	meta := d.cl.Metadata()
	return meta.Rank(meta.Table().RankFor(mainPath))
}

// midMigration reports whether the main subtree is mid-handoff — frozen,
// streaming, or in the prune-to-publish window. In that window no single
// store is authoritative (the source may already be pruned while routing
// still points at it), so store-reading checks defer to the next op
// boundary after the handoff commits or aborts.
func (d *driver) midMigration() bool {
	if !d.plan.Migrate {
		return false
	}
	return d.cl.Metadata().SubtreeFor(mainPath).State != mds.SubtreeOwned
}

func (d *driver) streamOn() bool {
	return d.strong() && d.plan.Dur == policy.DurGlobal
}

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
// injectors — so setup itself always succeeds and the calibrated
// baseline of the protocol stack is what the faults strike.
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
	if d.streamOn() {
		d.srv.SetStream(true)
		// The subtree may migrate to any rank; journal streaming must be
		// armed wherever its RPC updates could land.
		for r := 1; r < d.cl.Metadata().Ranks(); r++ {
			d.cl.Metadata().Rank(r).SetStream(true)
		}
	}

	pol := &policy.Policy{
		Consistency:     d.plan.Cons,
		Durability:      d.plan.Dur,
		AllocatedInodes: chaosGrant,
		Interfere:       policy.InterfereAllow,
	}
	e, err := d.cl.DecouplePolicy(p, d.c, mainPath, pol)
	if err != nil {
		d.violate("setup: decouple %s: %v", mainPath, err)
		return false
	}
	d.regs = append(d.regs, registration{mainPath, pol, d.c.Name(), e.GrantLo, e.GrantN})
	root, err := d.c.DecoupledRoot()
	if err != nil {
		d.violate("setup: decoupled root: %v", err)
		return false
	}
	d.cands = []parentRef{{root, mainPath}}
	d.scands = []parentRef{{root, mainPath}}
	if d.se() && !d.seRecordChain() {
		return false
	}

	if d.plan.Background {
		bpol := &policy.Policy{
			Consistency:     policy.ConsWeak,
			Durability:      policy.DurNone,
			AllocatedInodes: chaosGrant,
			Interfere:       policy.InterfereAllow,
		}
		be, err := d.cl.DecouplePolicy(p, d.bg, bgPath, bpol)
		if err != nil {
			d.violate("setup: decouple %s: %v", bgPath, err)
			return false
		}
		d.regs = append(d.regs, registration{bgPath, bpol, d.bg.Name(), be.GrantLo, be.GrantN})
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
		d.srv.InjectFaults(transport.NewFaultInterceptor(d.plan.Seed^0x77697265, transport.FaultConfig{
			DropProb:        0.2,
			MaxRetransmits:  3,
			RetransmitDelay: runtime.Duration(1e6),
			DelayProb:       0.2,
			MaxExtraDelay:   runtime.Duration(2e6),
			DuplicateProb:   0.2,
			DuplicateOK: func(msg any) bool {
				// Double delivery is only injected for read-only RPCs,
				// whose handlers are idempotent by construction.
				req, ok := msg.(*mds.Request)
				return ok && !req.Op.Mutates()
			},
		}))
	}
	d.plan.Faults.Arm(d.cl.Engine(), func(f sim.Fault) {
		d.pending = append(d.pending, f)
	})
	return true
}

// drain applies every fault that has fired since the last op boundary —
// crash plus immediate restart and recovery, one at a time — then
// re-checks the visibility contracts.
func (d *driver) drain(p runtime.Task) {
	for len(d.pending) > 0 {
		f := d.pending[0]
		d.pending = d.pending[1:]
		d.res.CrashFaults++
		d.fl.Record(int64(p.Now()), "chaos", "fault", f.Kind, f.Target)
		switch f.Kind {
		case FaultClientCrash:
			d.crashClient(p)
		case FaultMDSCrash:
			d.crashMDS(p)
		default:
			d.violate("unknown fault kind %q", f.Kind)
		}
	}
	d.checkVisible()
	d.checkInvisible()
}

// crashClient kills and restarts the main client. DurLocal's contract
// is exercised here: an acked Local Persist must restore exactly the
// persisted journal.
func (d *driver) crashClient(p runtime.Task) {
	d.c.Crash(p)
	d.o.clientCrash()
	d.cands = d.cands[:1]
	d.scands = d.scands[:1]
	// The crash wiped the client-local image: names recovered into the
	// journal are no longer unlinkable (the image no longer renders them).
	d.seLive = nil
	if err := d.c.Restart(p); err != nil {
		d.violate("client restart: %v", err)
		return
	}
	if !d.strong() && d.plan.Dur == policy.DurLocal && d.o.hasLocal {
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

// crashMDS kills and restarts the rank owning the main subtree, replays
// that rank's registrations in their original order, and asserts each
// re-attach reproduces the original inode grant. On migration schedules
// the crash follows ownership — a crash mid-handoff strikes the source
// (routing has not flipped yet), one after commit strikes the importer.
func (d *driver) crashMDS(p runtime.Task) {
	d.mdsCrashed = true
	srv := d.mds()
	rank := 0
	if d.plan.Migrate {
		rank = d.cl.Metadata().Table().RankFor(mainPath)
	}
	srv.Crash(p)
	d.o.mdsCrash()
	if err := srv.Restart(p); err != nil {
		d.violate("mds restart: %v", err)
		return
	}
	for _, reg := range d.regs {
		if d.cl.Metadata().Table().RankFor(reg.path) != rank {
			continue // registration lives on a rank that did not crash
		}
		if d.plan.Migrate {
			// The grant may have been allocated by the other rank and
			// carried over by a migration; a fresh Decouple on this rank
			// could not reproduce it, so re-install it exactly — the same
			// recovery path the monitor's Reattach uses.
			if err := srv.Attach(p, reg.path, reg.pol, reg.owner, reg.lo, reg.n); err != nil {
				d.violate("re-attach %s: %v", reg.path, err)
			}
			continue
		}
		lo, n, err := srv.Decouple(p, reg.path, reg.pol, reg.owner)
		if err != nil {
			d.violate("re-decouple %s: %v", reg.path, err)
			continue
		}
		if lo != reg.lo || n != reg.n {
			d.violate("re-decouple %s: grant (%d,%d), want (%d,%d)",
				reg.path, uint64(lo), n, uint64(reg.lo), reg.n)
		}
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
	d.scands = d.scands[:1]
}

// step runs one weighted random workload operation.
func (d *driver) step(p runtime.Task) {
	if d.strong() {
		d.stepStrong(p)
		return
	}
	if d.spec() {
		d.stepSpec(p)
		return
	}
	if d.se() {
		d.stepSE(p)
		return
	}
	roll := d.rng.Float64()
	switch {
	case roll < 0.55:
		d.opLocalCreate(p)
	case roll < 0.70:
		d.opLocalMkdir(p)
	case roll < 0.85:
		d.opPersist(p)
	default:
		// Invisible subtrees never merge mid-run — that is the contract
		// under test — so the merge weight falls through to create.
		if d.plan.Cons == policy.ConsWeak {
			d.opMerge(p)
		} else {
			d.opLocalCreate(p)
		}
	}
}

func (d *driver) stepStrong(p runtime.Task) {
	roll := d.rng.Float64()
	switch {
	case roll < 0.70:
		d.opRPCCreate(p)
	case roll < 0.80:
		d.opRPCMkdir(p)
	default:
		if d.streamOn() {
			d.mds().FlushJournal(p)
			d.o.flushOK()
		} else {
			d.opRPCCreate(p)
		}
	}
}

func (d *driver) nextName(prefix string) string {
	name := fmt.Sprintf("%s%06d", prefix, d.nameSeq)
	d.nameSeq++
	return name
}

// ackIno records an acked grant inode number and flags any reissue.
// Only decoupled-grant inos carry the strict invariant: their first ack
// may be durable in a client journal or persisted image the MDS cannot
// see, so a rewound allocation cursor silently aliases two files.
// Server-assigned (RPC) inos are exempt — the store allocator skips
// every inode that survives recovery, so it can only recycle numbers
// whose updates were wholly lost, exactly like a real inode table.
func (d *driver) ackIno(ino uint64, path string) {
	if prev, dup := d.seenIno[ino]; dup {
		d.violate("inode %d acked for %s was already acked for %s", ino, path, prev)
		return
	}
	d.seenIno[ino] = path
}

func (d *driver) opLocalCreate(p runtime.Task) {
	par := d.cands[d.rng.Intn(len(d.cands))]
	name := d.nextName("f")
	ino, err := d.c.LocalCreate(p, par.ino, name, 0o644)
	if err != nil {
		d.violate("local create %s/%s: %v", par.path, name, err)
		return
	}
	d.ackIno(uint64(ino), par.path+"/"+name)
	d.o.ackJournal(update{
		path: par.path + "/" + name, ino: uint64(ino),
		parent: uint64(par.ino), name: name, granted: true,
	})
}

func (d *driver) opLocalMkdir(p runtime.Task) {
	if len(d.cands) >= maxParents {
		d.opLocalCreate(p)
		return
	}
	par := d.cands[d.rng.Intn(len(d.cands))]
	name := d.nextName("d")
	ino, err := d.c.LocalMkdir(p, par.ino, name, 0o755)
	if err != nil {
		d.violate("local mkdir %s/%s: %v", par.path, name, err)
		return
	}
	path := par.path + "/" + name
	d.ackIno(uint64(ino), path)
	d.o.ackJournal(update{
		path: path, ino: uint64(ino),
		parent: uint64(par.ino), name: name, dir: true, granted: true,
	})
	// Only directories whose mkdir is in the current journal may parent
	// further updates: that keeps every journal (and every persisted
	// image) self-contained, so recovery can always replay it.
	d.cands = append(d.cands, parentRef{ino, path})
}

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
	default: // DurNone has no persistence mechanism
		// Fall back to the cell's own create op: the speculative oracle
		// must not displace an interfering twin's pset entry, and the
		// strong-eventual workload must stay at the subtree root.
		switch {
		case d.spec():
			d.opSpecCreate(p)
		case d.se():
			d.opSECreate(p)
		default:
			d.opLocalCreate(p)
		}
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

func (d *driver) opMerge(p runtime.Task) {
	want := len(d.o.journal)
	applied, err := d.c.VolatileApply(p)
	d.res.Merges++
	if err != nil {
		d.violate("volatile apply: %v", err)
		return
	}
	if applied != want {
		d.violate("volatile apply: applied %d events, journal had %d", applied, want)
	}
	d.o.mergeOK()
	d.cands = d.cands[:1]
	d.checkVisible()
}

func (d *driver) opRPCCreate(p runtime.Task) {
	par := d.scands[d.rng.Intn(len(d.scands))]
	name := d.nextName("f")
	ino, err := d.c.Create(p, par.ino, name, 0o644)
	if err != nil {
		d.violate("rpc create %s/%s: %v", par.path, name, err)
		return
	}
	d.o.ackRPC(update{
		path: par.path + "/" + name, ino: uint64(ino),
		parent: uint64(par.ino), name: name,
	}, d.streamOn())
}

func (d *driver) opRPCMkdir(p runtime.Task) {
	if len(d.scands) >= maxParents {
		d.opRPCCreate(p)
		return
	}
	par := d.scands[d.rng.Intn(len(d.scands))]
	name := d.nextName("d")
	ino, err := d.c.Mkdir(p, par.ino, name, 0o755)
	if err != nil {
		d.violate("rpc mkdir %s/%s: %v", par.path, name, err)
		return
	}
	path := par.path + "/" + name
	d.o.ackRPC(update{
		path: path, ino: uint64(ino),
		parent: uint64(par.ino), name: name, dir: true,
	}, d.streamOn())
	d.scands = append(d.scands, parentRef{ino, path})
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
		if _, err := d.bg.VolatileApply(p); err != nil {
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
				d.fl.Record(int64(p.Now()), "chaos", "migrate", "abort", err.Error())
				continue
			}
			d.res.Migrations++
			d.fl.Record(int64(p.Now()), "chaos", "migrate", "commit",
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
	for _, path := range d.o.visiblePaths() {
		u := d.o.mdsMem[path]
		in, err := store.Resolve(path)
		if err != nil {
			d.violate("visible update %s missing: %v", path, err)
			continue
		}
		if d.se() && u.dir {
			// Strong-eventual directory identity is structural: the CRDT
			// resolver renders directories with server-assigned inodes,
			// so only presence is part of the contract.
			continue
		}
		if uint64(in.Ino) != u.ino {
			d.violate("visible update %s has ino %d, want %d", path, uint64(in.Ino), u.ino)
		}
	}
}

// checkInvisible asserts no unmerged update of an invisible subtree has
// leaked into the global namespace.
func (d *driver) checkInvisible() {
	if d.plan.Cons != policy.ConsInvisible || d.midMigration() {
		return
	}
	store := d.mds().Store()
	for _, path := range d.o.ackedPaths() {
		if _, merged := d.o.mdsMem[path]; merged {
			continue
		}
		if _, err := store.Resolve(path); err == nil {
			d.violate("invisible update %s leaked into the global namespace", path)
		}
	}
}

// finalVerify is the end-of-schedule contract check: recover everything
// each policy guarantees, then sweep the namespace for phantoms, grant
// violations, structural damage, and leaked merge slots.
func (d *driver) finalVerify(p runtime.Task) {
	if forceViolation {
		d.violate("forced violation (test hook) after op %06d", d.nameSeq-1)
	}
	d.checkInvisible()
	if !d.strong() {
		// Persist the tail so the global image covers the whole run,
		// then merge the live journal (journals are self-contained, so
		// this must succeed) through the cell's own merge path.
		if d.plan.Dur == policy.DurGlobal && len(d.o.journal) > 0 {
			d.opGlobalPersist(p)
		}
		if len(d.o.journal) > 0 {
			switch {
			case d.spec():
				d.opSpecMerge(p)
			case d.se():
				d.opSEMerge(p)
			default:
				d.opMerge(p)
			}
		}
	}
	if d.streamOn() {
		// DurGlobal probe for the streaming cell: flush, lose the owning
		// rank, and demand every flush-acked update come back from the
		// recovered journal segments (and, post-migration, the saved
		// subtree image).
		d.mds().FlushJournal(p)
		d.o.flushOK()
		d.crashMDS(p)
	}
	if !d.strong() && d.plan.Dur == policy.DurGlobal {
		switch {
		case d.spec():
			d.verifyGlobalSpec(p)
		case d.se():
			d.verifyGlobalSE(p)
		default:
			d.verifyGlobal(p)
		}
	}
	if d.se() && d.plan.Permute {
		d.verifyPermutations()
	}
	d.checkVisible()
	d.checkBG()
	d.checkNamespace()
	for r := 0; r < d.cl.Metadata().Ranks(); r++ {
		if q := d.cl.Metadata().Rank(r).MergeQueue(); q != 0 {
			d.violate("merge queue not drained: rank %d holds %d jobs still accounted", r, q)
		}
	}
}

// verifyGlobal fetches the client's journal image back from the object
// store and replays it, asserting DurGlobal's contract: an acked Global
// Persist must read back as exactly the acked update sequence and merge
// cleanly; after a failed persist the image may be torn or stale, but
// whatever recovers must stay inside the acked-update set (the phantom
// walk checks that half).
func (d *driver) verifyGlobal(p runtime.Task) {
	if d.o.global == globalNone {
		return
	}
	evBytes := int64(d.cl.Config().JournalEventBytes)
	evs, err := d.c.FetchGlobalJournal(p, d.c.Name())
	if d.o.global == globalDirty {
		if err != nil || len(evs) == 0 {
			return // unacked image may be unreadable — allowed
		}
		// Tolerate replay errors too: a stale image can reference
		// directories the crashed MDS no longer holds. Partial applies
		// are bounded by the phantom walk.
		_, _ = d.mds().VolatileApply(p, evs, int64(len(evs))*evBytes)
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
	applied, merr := d.mds().VolatileApply(p, evs, int64(len(evs))*evBytes)
	if merr != nil {
		d.violate("merge recovered global journal: %v", merr)
		return
	}
	if applied != len(evs) {
		d.violate("recovered global journal: applied %d of %d events", applied, len(evs))
		return
	}
	d.o.adoptGlobal()
}

// checkBG asserts the background client's merged updates are all
// visible. Skipped if the MDS ever crashed: background updates are
// volatile merges (ConsWeak/DurNone) and may legitimately die with it.
func (d *driver) checkBG() {
	if !d.plan.Background || d.mdsCrashed {
		return
	}
	store := d.srv.Store()
	paths := make([]string, 0, len(d.bgSet))
	for path := range d.bgSet {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
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

// checkNamespace sweeps the final namespace: no phantom entries outside
// the acked-update set, every granted inode inside its registration's
// range, and a structurally clean store.
func (d *driver) checkNamespace() {
	d.walkSubtree(d.mds().Store(), mainPath, func(path string, ino uint64) (uint64, bool) {
		u, ok := d.o.pset[path]
		if d.se() && u.dir {
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

	reg := d.regs[0]
	for _, path := range d.o.ackedPaths() {
		u := d.o.pset[path]
		if !u.granted {
			continue
		}
		if u.ino < uint64(reg.lo) || u.ino >= uint64(reg.lo)+reg.n {
			d.violate("update %s ino %d outside grant [%d,%d)",
				path, u.ino, uint64(reg.lo), uint64(reg.lo)+reg.n)
		}
	}
	if d.plan.Background {
		breg := d.regs[1]
		paths := make([]string, 0, len(d.bgSet))
		for path := range d.bgSet {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			ino := d.bgSet[path]
			if ino < uint64(breg.lo) || ino >= uint64(breg.lo)+breg.n {
				d.violate("background update %s ino %d outside grant [%d,%d)",
					path, ino, uint64(breg.lo), uint64(breg.lo)+breg.n)
			}
		}
	}

	for r := 0; r < d.cl.Metadata().Ranks(); r++ {
		problems := make([]string, 0)
		for _, prob := range d.cl.Metadata().Rank(r).Store().Check() {
			problems = append(problems, prob.String())
		}
		sort.Strings(problems)
		for _, prob := range problems {
			d.violate("store check (rank %d): %s", r, prob)
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
