// Package rados simulates a Ceph-like replicated object store (RADOS).
//
// Objects live in named pools and are placed onto OSDs (object storage
// daemons) by hashing, like Ceph placement groups. Object contents are
// stored for real — reads return exactly what was written — while the cost
// of each operation (fixed per-op latency, disk transfer on the target OSD,
// network transfer) is charged in virtual time against the owning OSD's
// simulated devices, so concurrent clients contend realistically.
//
// Alongside byte payloads, objects carry an omap (ordered key/value pairs),
// which the metadata store uses to hold dentries inside directory objects,
// mirroring CephFS.
package rados

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"cudele/internal/model"
	"cudele/internal/runtime"
	"cudele/internal/trace"
)

// ErrNotFound is returned when an object (or omap key) does not exist.
var ErrNotFound = errors.New("rados: object not found")

// ObjectID names an object within a pool.
type ObjectID struct {
	Pool string
	Name string
}

func (o ObjectID) String() string { return o.Pool + "/" + o.Name }

type object struct {
	data []byte
	omap map[string][]byte
}

// OSD is one simulated object storage daemon with its own disk channel.
type OSD struct {
	ID   int
	Disk *runtime.Pipe
}

// Cluster is the simulated object store. Its state belongs to one lock
// domain that every task-taking method enters, so on the real backend
// object operations exclude one another but not the daemons calling them.
type Cluster struct {
	eng  runtime.Runtime
	dom  runtime.Domain
	cfg  model.Config
	osds []*OSD
	net  *runtime.Pipe
	pgs  uint32

	objects map[ObjectID]*object

	// faults, when non-nil, may fail or tear writes (see fault.go).
	faults *FaultInjector

	// store, when non-nil, logs every mutation to a real file (see
	// filestore.go). Reads stay in memory; simulated device charges are
	// skipped because the fsync is the real cost.
	store *FileStore

	// statistics
	reads, writes, deletes uint64
	bytesRead, bytesWrit   uint64
	writeFaults            uint64
}

// New creates an object store with cfg.NumOSDs daemons on engine e.
func New(e runtime.Runtime, cfg model.Config) *Cluster {
	c := &Cluster{
		eng:     e,
		dom:     e.NewDomain("rados"),
		cfg:     cfg,
		net:     e.NewPipe("rados.net", cfg.NetBandwidth),
		pgs:     128,
		objects: make(map[ObjectID]*object),
	}
	for i := 0; i < cfg.NumOSDs; i++ {
		c.osds = append(c.osds, &OSD{
			ID:   i,
			Disk: e.NewPipe(fmt.Sprintf("osd.%d.disk", i), cfg.OSDDiskBandwidth),
		})
	}
	return c
}

// OSDs returns the cluster's OSDs (for utilization reporting).
func (c *Cluster) OSDs() []*OSD { return c.osds }

// Net returns the shared fabric pipe.
func (c *Cluster) Net() *runtime.Pipe { return c.net }

// SetFaults installs (or, with nil, removes) a write-fault injector.
func (c *Cluster) SetFaults(f *FaultInjector) { c.faults = f }

// pg maps an object to a placement group, then to its primary OSD, like
// Ceph's CRUSH-by-hash placement.
func (c *Cluster) primary(oid ObjectID) *OSD {
	h := fnv.New32a()
	h.Write([]byte(oid.Pool))
	h.Write([]byte{0})
	h.Write([]byte(oid.Name))
	pg := h.Sum32() % c.pgs
	return c.osds[int(pg)%len(c.osds)]
}

// replicas returns the OSDs that hold oid, primary first.
func (c *Cluster) replicas(oid ObjectID) []*OSD {
	prim := c.primary(oid)
	n := c.cfg.Replicas
	if n > len(c.osds) {
		n = len(c.osds)
	}
	out := make([]*OSD, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, c.osds[(prim.ID+i)%len(c.osds)])
	}
	return out
}

// chargeWrite blocks p for the cost of writing n bytes to oid: one fixed
// round trip plus a disk transfer on every replica. Replica transfers are
// charged sequentially on their respective disks but those disks are
// independent pipes, so different objects still proceed in parallel.
func (c *Cluster) chargeWrite(p runtime.Task, oid ObjectID, n int64) {
	if c.store != nil {
		return // the durable write itself is the cost
	}
	rec := p.Runtime().Tracer()
	span := trace.SpanID(-1)
	if rec != nil { // guard so oid.String() never runs when disabled
		span = rec.Begin(int64(p.Now()), "rados", "rados", "rados.write",
			trace.KV{Key: "object", Val: oid.String()})
	}
	c.opLatency(p)
	c.net.Transfer(p, n)
	for _, osd := range c.replicas(oid) {
		osd.Disk.Transfer(p, n)
	}
	rec.End(span, int64(p.Now()))
}

// chargeRead blocks p for the cost of reading n bytes from oid's primary.
func (c *Cluster) chargeRead(p runtime.Task, oid ObjectID, n int64) {
	if c.store != nil {
		return // reads are served from memory on the real backend
	}
	rec := p.Runtime().Tracer()
	span := trace.SpanID(-1)
	if rec != nil {
		span = rec.Begin(int64(p.Now()), "rados", "rados", "rados.read",
			trace.KV{Key: "object", Val: oid.String()})
	}
	c.opLatency(p)
	c.primary(oid).Disk.Transfer(p, n)
	c.net.Transfer(p, n)
	rec.End(span, int64(p.Now()))
}

// opLatency charges one fixed round trip, skipped when a durable store
// is attached (real operations carry their own cost).
func (c *Cluster) opLatency(p runtime.Task) {
	if c.store != nil {
		return
	}
	p.Sleep(c.cfg.OSDOpLatency)
}

// Pipeline makes mutations whose durability is deferred to one Flush, the
// way librados splits aio_operate from aio_flush: each call charges,
// draws its fault, changes memory and stages its log record exactly as the
// Cluster method of the same name does, and returns without waiting for
// the disk. Nothing made through a pipeline is acknowledged before its
// Flush returns nil; a crash before that leaves a prefix of the staged
// records, never a gap. A handle belongs to one task. A written payload
// is the store's from the call on, as with Cluster.Write, so deferral asks
// nothing more of the caller: the log may write a large payload from that
// same slice at Flush. The Cluster's own mutating methods are pipelines
// of one.
type Pipeline struct {
	c   *Cluster
	lsn int64 // of the last record staged through this handle
}

// Pipeline returns a handle that defers durability to its Flush.
func (c *Cluster) Pipeline() *Pipeline { return &Pipeline{c: c} }

// log stages the record of the mutation the caller has just applied to
// memory: here, inside the store's domain, so the log keeps the order
// memory saw. A log that has outgrown its last checkpoint is compacted
// first, from the memory image.
func (pl *Pipeline) log(kind byte, oid ObjectID, kv map[string][]byte, tail []byte) error {
	c := pl.c
	if c.store == nil {
		return nil
	}
	lsn, err := c.store.stage(kind, oid, kv, tail)
	if err == nil && c.store.checkpointDue() {
		err = c.store.checkpoint(c.objects)
	}
	if err == nil {
		pl.lsn = lsn
	}
	return err
}

// Flush returns once everything staged through pl is durable: one Commit,
// outside every domain (Blocking), so other tasks overlap the fsync — and
// share it. Without a store, or with nothing staged, it returns before
// touching the task: the simulator gains no yield point.
func (pl *Pipeline) Flush(p runtime.Task) error {
	store, lsn := pl.c.store, pl.lsn
	if store == nil || lsn == 0 {
		return nil
	}
	var err error
	p.Blocking(func() { err = store.Commit(lsn) })
	return err
}

// ack ends a pipeline of one: the mutation's own error, else its Flush's.
// A torn write is flushed too — the prefix is what was stored; the fault
// is the error.
func (pl *Pipeline) ack(p runtime.Task, err error) error {
	if ferr := pl.Flush(p); err == nil {
		err = ferr
	}
	return err
}

func (c *Cluster) get(oid ObjectID) *object {
	return c.objects[oid]
}

func (c *Cluster) getOrCreate(oid ObjectID) *object {
	o := c.objects[oid]
	if o == nil {
		o = &object{}
		c.objects[oid] = o
	}
	return o
}

// Write stores data as the full contents of oid, creating it if needed:
// a WriteBilled that bills what it stores. The store keeps data itself,
// not a copy: once written, the bytes are the store's, and the caller
// must not change them.
func (c *Cluster) Write(p runtime.Task, oid ObjectID, data []byte) error {
	return c.WriteBilled(p, oid, data, 0)
}

// Write is Cluster.Write, durable at Flush.
func (pl *Pipeline) Write(p runtime.Task, oid ObjectID, data []byte) error {
	return pl.WriteBilled(p, oid, data, 0)
}

// WriteBilled stores data as oid's contents but charges the devices as if
// billed bytes were transferred. The metadata journal's 2.5 KB/event
// footprint (paper §V-A) dwarfs its information content; billing lets the
// simulation carry the paper's transfer costs without materializing
// padding. An armed fault injector may fail the write cleanly (nothing
// persisted) or tear it (a prefix persisted, then an error). Either way
// the store may keep data, or a prefix of it, without copying: the caller
// gives the slice up. The store never writes into an object's bytes; a
// later write replaces them, and Read hands out a copy.
func (c *Cluster) WriteBilled(p runtime.Task, oid ObjectID, data []byte, billed int64) error {
	pl := Pipeline{c: c}
	return pl.ack(p, pl.WriteBilled(p, oid, data, billed))
}

// WriteBilled is Cluster.WriteBilled, durable at Flush.
func (pl *Pipeline) WriteBilled(p runtime.Task, oid ObjectID, data []byte, billed int64) error {
	pl.c.dom.Enter(p)
	defer pl.c.dom.Leave(p)
	return pl.write(p, oid, data, billed)
}

// Create is Write for an object that does not exist yet, durable at
// Flush: an exclusive create carrying the object's first contents, as
// librados runs create(exclusive) and a full write in one op. It leaves
// an existing object as it is, at the cost of one round trip.
func (pl *Pipeline) Create(p runtime.Task, oid ObjectID, data []byte) error {
	c := pl.c
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	if c.get(oid) != nil {
		c.opLatency(p)
		return nil
	}
	return pl.write(p, oid, data, 0)
}

// write is the body of WriteBilled; the caller holds the store's domain.
func (pl *Pipeline) write(p runtime.Task, oid ObjectID, data []byte, billed int64) error {
	c := pl.c
	if billed < int64(len(data)) {
		billed = int64(len(data))
	}
	c.writes++
	c.bytesWrit += uint64(billed)
	c.chargeWrite(p, oid, billed)
	outcome, torn := c.faults.writeOutcome(oid, len(data))
	switch outcome {
	case faultError:
		c.writeFaults++
		c.recordFault(p, "write", oid)
		return faultErrf("write", oid)
	case faultTorn:
		c.writeFaults++
		c.recordFault(p, "torn-write", oid)
		o := c.getOrCreate(oid)
		o.data = data[:torn:torn]
		pl.log(recWrite, oid, nil, o.data) // the torn prefix is what was stored; the fault is the error
		return faultErrf("torn write", oid)
	}
	o := c.getOrCreate(oid)
	o.data = data
	return pl.log(recWrite, oid, nil, data)
}

// Read returns a copy of oid's contents.
func (c *Cluster) Read(p runtime.Task, oid ObjectID) ([]byte, error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	o := c.get(oid)
	if o == nil {
		c.opLatency(p) // a miss still costs a round trip
		return nil, fmt.Errorf("read %v: %w", oid, ErrNotFound)
	}
	c.reads++
	c.bytesRead += uint64(len(o.data))
	c.chargeRead(p, oid, int64(len(o.data)))
	out := make([]byte, len(o.data))
	copy(out, o.data)
	return out, nil
}

// Stat returns the byte size of oid.
func (c *Cluster) Stat(p runtime.Task, oid ObjectID) (int, error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	c.opLatency(p)
	o := c.get(oid)
	if o == nil {
		return 0, fmt.Errorf("stat %v: %w", oid, ErrNotFound)
	}
	return len(o.data), nil
}

// Remove deletes oid. Removing a missing object returns ErrNotFound.
func (c *Cluster) Remove(p runtime.Task, oid ObjectID) error {
	pl := Pipeline{c: c}
	return pl.ack(p, pl.Remove(p, oid))
}

// Remove is Cluster.Remove, durable at Flush.
func (pl *Pipeline) Remove(p runtime.Task, oid ObjectID) error {
	c := pl.c
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	c.opLatency(p)
	if c.get(oid) == nil {
		return fmt.Errorf("remove %v: %w", oid, ErrNotFound)
	}
	c.deletes++
	delete(c.objects, oid)
	return pl.log(recRemove, oid, nil, nil)
}

// OmapSet stores key/value pairs in oid's omap, creating the object if
// needed. The cost is one write round trip plus the payload transfer.
// Omap updates are atomic: an injected fault fails the whole batch
// cleanly, never a torn subset.
func (c *Cluster) OmapSet(p runtime.Task, oid ObjectID, kv map[string][]byte) error {
	pl := Pipeline{c: c}
	return pl.ack(p, pl.OmapSet(p, oid, kv))
}

// OmapSet is Cluster.OmapSet, durable at Flush.
func (pl *Pipeline) OmapSet(p runtime.Task, oid ObjectID, kv map[string][]byte) error {
	c := pl.c
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	var n int64
	for k, v := range kv {
		n += int64(len(k) + len(v))
	}
	c.writes++
	c.bytesWrit += uint64(n)
	c.chargeWrite(p, oid, n)
	if outcome, _ := c.faults.writeOutcome(oid, 0); outcome != faultNone {
		c.writeFaults++
		c.recordFault(p, "omap-set", oid)
		return faultErrf("omap-set", oid)
	}
	o := c.getOrCreate(oid)
	if o.omap == nil {
		o.omap = make(map[string][]byte, len(kv))
	}
	for k, v := range kv {
		val := make([]byte, len(v))
		copy(val, v)
		o.omap[k] = val
	}
	return pl.log(recOmapSet, oid, kv, nil)
}

// OmapGet returns the value stored under key in oid's omap.
func (c *Cluster) OmapGet(p runtime.Task, oid ObjectID, key string) ([]byte, error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	o := c.get(oid)
	if o == nil || o.omap == nil {
		c.opLatency(p)
		return nil, fmt.Errorf("omap-get %v[%q]: %w", oid, key, ErrNotFound)
	}
	v, ok := o.omap[key]
	if !ok {
		c.opLatency(p)
		return nil, fmt.Errorf("omap-get %v[%q]: %w", oid, key, ErrNotFound)
	}
	c.reads++
	c.bytesRead += uint64(len(v))
	c.chargeRead(p, oid, int64(len(key)+len(v)))
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// OmapRemove deletes key from oid's omap.
func (c *Cluster) OmapRemove(p runtime.Task, oid ObjectID, key string) error {
	pl := Pipeline{c: c}
	return pl.ack(p, pl.OmapRemove(p, oid, key))
}

// OmapRemove is Cluster.OmapRemove, durable at Flush.
func (pl *Pipeline) OmapRemove(p runtime.Task, oid ObjectID, key string) error {
	c := pl.c
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	c.opLatency(p)
	o := c.get(oid)
	if o == nil || o.omap == nil {
		return fmt.Errorf("omap-remove %v[%q]: %w", oid, key, ErrNotFound)
	}
	if _, ok := o.omap[key]; !ok {
		return fmt.Errorf("omap-remove %v[%q]: %w", oid, key, ErrNotFound)
	}
	delete(o.omap, key)
	return pl.log(recOmapRemove, oid, nil, []byte(key))
}

// List returns the names of all objects in pool, sorted. It charges one
// round trip per placement-group scan, approximating a pool listing.
func (c *Cluster) List(p runtime.Task, pool string) []string {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	if c.store == nil {
		p.Sleep(c.cfg.OSDOpLatency * runtime.Duration(len(c.osds)))
	}
	var names []string
	for oid := range c.objects {
		if oid.Pool == pool {
			names = append(names, oid.Name)
		}
	}
	sort.Strings(names)
	return names
}

// Stats reports cumulative operation counters.
type Stats struct {
	Reads, Writes, Deletes  uint64
	BytesRead, BytesWritten uint64
	Objects                 int
	WriteFaults             uint64
	LogStats                // the attached FileStore's; zero on the simulator
}

// Stats returns a snapshot of cumulative counters.
func (c *Cluster) Stats() Stats {
	var log LogStats
	if c.store != nil {
		log = c.store.Stats()
	}
	return Stats{
		LogStats:     log,
		Reads:        c.reads,
		Writes:       c.writes,
		Deletes:      c.deletes,
		BytesRead:    c.bytesRead,
		BytesWritten: c.bytesWrit,
		Objects:      len(c.objects),
		WriteFaults:  c.writeFaults,
	}
}
