package client

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cudele/internal/mds"
	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/rados"
	"cudele/internal/realrt"
	"cudele/internal/runtime"
	"cudele/internal/transport"
)

// onBackends runs body on a one-rank cluster of the simulator and of the
// real backend. An RPC method owns the client's one request buffer, and
// the reply lives in it (mds.Request), so these tests hold the ownership
// rule on both: under -race the real backend finds a buffer two tasks
// write at once.
func onBackends(t *testing.T, body func(t *testing.T, cl *cluster)) {
	t.Run("sim", func(t *testing.T) { body(t, newCluster()) })
	t.Run("real", func(t *testing.T) {
		eng := realrt.New(23)
		t.Cleanup(func() { eng.Shutdown() })
		cfg := model.Default()
		body(t, clusterOver(eng, cfg, rados.New(eng, cfg)))
	})
}

// bufferBack reports, from inside the client's domain, whether its
// request buffer is back (no RPC holds it).
func bufferBack(p runtime.Task, c *Client) bool {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	return c.req != nil
}

// TestRequestBufferParkedRPC: two tasks enter one client while the first
// is parked mid-RPC behind the rank's CPU, holding the client's request
// buffer. The second task's lookup gets a request of its own — had it
// taken the buffer, the first lookup would be answered for the second's
// name — each task sees its own reply, and the buffer is back once both
// return.
func TestRequestBufferParkedRPC(t *testing.T) {
	onBackends(t, func(t *testing.T, cl *cluster) {
		c := cl.client("c0")
		cl.run(t, func(p runtime.Task) {
			dir, err := c.Mkdir(p, namespace.RootIno, "d", 0755)
			if err != nil {
				t.Errorf("mkdir: %v", err)
				return
			}
			var want, got [2]namespace.Ino
			for i := range want {
				if want[i], err = c.Create(p, dir, fmt.Sprintf("f%d", i), 0644); err != nil {
					t.Errorf("create: %v", err)
					return
				}
			}
			cpu := cl.srv.CPU()
			cpu.Acquire(p)
			g := p.Runtime().NewDomain("lookups").NewGroup()
			for i := range got {
				g.Go(fmt.Sprintf("lookup%d", i), func(p runtime.Task) {
					var err error
					got[i], err = c.Lookup(p, dir, fmt.Sprintf("f%d", i))
					if err != nil {
						t.Errorf("lookup f%d: %v", i, err)
					}
				})
				// Park each lookup behind the held CPU before the next
				// task enters the client.
				for cpu.Snapshot().QueueLen <= i {
					p.Sleep(1000)
				}
				if bufferBack(p, c) {
					t.Errorf("lookup f%d is parked mid-RPC and the buffer is back", i)
				}
			}
			cpu.Release()
			g.Wait(p)
			if got != want {
				t.Errorf("parked lookups answered %v, want %v", got, want)
			}
			if !bufferBack(p, c) {
				t.Error("the request buffer is not back after both RPCs returned")
			}
		})
	})
}

// junkReply stands for whatever a reply's storage held before a delivery:
// every field set, so one the handler does not write shows.
var junkReply = mds.Reply{
	Err: errors.New("left over"), Ino: 999, IsDir: true,
	Mode: 1, UID: 2, GID: 3, Size: 4, Mtime: 5,
	Names: []string{"left over"}, CapGranted: true, CapLost: true,
}

// TestRequestBufferDuplicateDelivery: with the transport's fault
// interceptor delivering read-only RPCs twice, every reply the client
// sees carries exactly what the handler wrote. Beneath the fault
// interceptor, each delivery of a request whose reply storage the rank
// has answered in before — an earlier RPC through the same buffer, or the
// first delivery of a duplicated one — finds that storage filled with
// junk first, so a field the handler leaves unwritten would surface.
func TestRequestBufferDuplicateDelivery(t *testing.T) {
	onBackends(t, func(t *testing.T, cl *cluster) {
		replies := make(map[*mds.Request]*mds.Reply)
		var deliveries int // rank-side state: read after RunAll
		cl.srv.InjectFaults(func(next transport.Handler) transport.Handler {
			return func(p runtime.Task, msg any) any {
				req, ok := msg.(*mds.Request)
				if !ok {
					return next(p, msg)
				}
				deliveries++
				if r := replies[req]; r != nil {
					*r = junkReply
				}
				r := next(p, msg).(*mds.Reply)
				replies[req] = r
				return r
			}
		})
		cl.srv.InjectFaults(transport.NewFaultInterceptor(7, func(msg any) bool {
			req, ok := msg.(*mds.Request)
			return ok && !req.Op.Mutates()
		}))
		c := cl.client("c0")
		cl.run(t, func(p runtime.Task) {
			dir, err := c.MkdirAll(p, "/d", 0755)
			if err != nil {
				t.Errorf("mkdir: %v", err)
				return
			}
			var names []string
			for i := 0; i < 40; i++ {
				name := fmt.Sprintf("f%02d", i)
				ino, err := c.Create(p, dir, name, 0640)
				if err != nil {
					t.Errorf("create %s: %v", name, err)
					return
				}
				names = append(names, name)
				// The rank's store is read between RPCs, by the only
				// task that calls into the rank.
				in, err := cl.srv.Store().Get(ino)
				if err != nil {
					t.Errorf("store: %v", err)
					return
				}
				st, err := c.Stat(p, ino)
				want := mds.Reply{Ino: ino, Mode: in.Mode, UID: in.UID, GID: in.GID, Size: in.Size, Mtime: in.Mtime}
				if err != nil || !reflect.DeepEqual(st, want) {
					t.Errorf("stat %s = %+v, %v; want %+v", name, st, err, want)
				}
				if got, err := c.Lookup(p, dir, name); got != ino || err != nil {
					t.Errorf("lookup %s = %d, %v; want %d", name, got, err, ino)
				}
				if _, err := c.Lookup(p, dir, name+".missing"); !errors.Is(err, namespace.ErrNotExist) {
					t.Errorf("lookup of a missing name: %v, want ErrNotExist", err)
				}
				if got, err := c.Resolve(p, "/d"); got != dir || err != nil {
					t.Errorf("resolve /d = %d, %v; want %d", got, err, dir)
				}
				if got, err := c.ReadDir(p, dir); !reflect.DeepEqual(got, names) || err != nil {
					t.Errorf("readdir = %v, %v; want %v", got, err, names)
				}
			}
			if !c.HoldsCap(dir) {
				t.Error("a left-over CapLost reached the client")
			}
		})
		if rpcs := c.Stats().RPCs; uint64(deliveries) <= rpcs {
			t.Errorf("%d deliveries for %d RPCs: nothing was delivered twice", deliveries, rpcs)
		}
	})
}

// TestRequestBufferStatCopy: the reply Stat returns is the caller's
// value, not the request buffer's, so the client's next RPCs do not
// change it: after them it still holds the file's attributes as the rank
// answered them.
func TestRequestBufferStatCopy(t *testing.T) {
	onBackends(t, func(t *testing.T, cl *cluster) {
		c := cl.client("c0")
		cl.run(t, func(p runtime.Task) {
			dir, err := c.Mkdir(p, namespace.RootIno, "d", 0755)
			if err != nil {
				t.Errorf("mkdir: %v", err)
				return
			}
			f, _ := c.Create(p, dir, "f", 0600)
			st, err := c.Stat(p, f)
			if err != nil {
				t.Errorf("stat: %v", err)
				return
			}
			in, err := cl.srv.Store().Get(f)
			if err != nil {
				t.Errorf("store: %v", err)
				return
			}
			want := mds.Reply{Ino: f, Mode: in.Mode, UID: in.UID, GID: in.GID, Size: in.Size, Mtime: in.Mtime}
			c.Stat(p, dir)
			c.Lookup(p, dir, "missing")
			c.SetAttr(p, f, 0644, 1, 1, 7, 0)
			if !reflect.DeepEqual(st, want) {
				t.Errorf("a Stat reply after later RPCs: %+v, want %+v", st, want)
			}
		})
	})
}

// TestSharedDirectoryNotCached: once a create's reply tells the client a
// directory has become shared (CapLost), the client drops the
// directory's dentries and caches none for it again — its one reader,
// the cap-held existence check, never runs for a shared directory. Every
// create there sends a lookup RPC, and that RPC is what still answers
// ErrExist for a name created before the directory became shared.
func TestSharedDirectoryNotCached(t *testing.T) {
	cl := newCluster()
	a, b := cl.client("a"), cl.client("b")
	cl.run(t, func(p runtime.Task) {
		dir, err := a.Mkdir(p, namespace.RootIno, "d", 0755)
		if err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		a.Create(p, dir, "f0", 0644)
		if !a.HoldsCap(dir) || a.dcache[dir].Len() != 1 {
			t.Errorf("single writer: cap %v, %d cached dentries; want the cap and 1", a.HoldsCap(dir), a.dcache[dir].Len())
			return
		}
		b.Create(p, dir, "intruder", 0644)
		a.Create(p, dir, "f1", 0644) // its reply carries CapLost
		before := a.Stats().RemoteLookups
		for i := 2; i < 7; i++ {
			if _, ok := a.dcache[dir]; ok {
				t.Errorf("before create f%d: the shared directory has a dentry cache", i)
			}
			if _, err := a.Create(p, dir, fmt.Sprintf("f%d", i), 0644); err != nil {
				t.Errorf("create f%d: %v", i, err)
			}
		}
		if _, ok := a.dcache[dir]; ok {
			t.Error("the shared directory has a dentry cache")
		}
		if _, ok := b.dcache[dir]; ok {
			t.Error("the interferer cached a dentry of the shared directory")
		}
		if a.HoldsCap(dir) {
			t.Error("a still believes it holds the cap")
		}
		if got := a.Stats().RemoteLookups - before; got != 5 {
			t.Errorf("5 creates in the shared directory sent %d lookup RPCs, want 5", got)
		}
		before = a.Stats().RemoteLookups
		if _, err := a.Create(p, dir, "f0", 0644); !errors.Is(err, namespace.ErrExist) {
			t.Errorf("create of an existing name: %v, want ErrExist", err)
		}
		if got := a.Stats().RemoteLookups - before; got != 1 {
			t.Errorf("the existing name's create sent %d lookup RPCs, want 1", got)
		}
	})
}
