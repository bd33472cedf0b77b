package client

import (
	"bytes"
	"errors"
	"testing"

	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/rados"
	"cudele/internal/runtime"
)

func TestWriteReadFile(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	payload := make([]byte, 6<<20) // 1.5 stripes
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	cl.run(t, func(p runtime.Task) {
		dir, _ := c.Mkdir(p, namespace.RootIno, "d", 0755)
		ino, _ := c.Create(p, dir, "blob", 0644)
		if err := c.WriteFile(p, ino, payload); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		st, _ := c.Stat(p, ino)
		if st.Size != uint64(len(payload)) {
			t.Errorf("size = %d, want %d", st.Size, len(payload))
		}
		got, err := c.ReadFile(p, ino)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("read mismatch (%d bytes, %v)", len(got), err)
		}
	})
}

func TestReadEmptyFile(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		ino, _ := c.Create(p, namespace.RootIno, "empty", 0644)
		got, err := c.ReadFile(p, ino)
		if err != nil || len(got) != 0 {
			t.Errorf("empty read = %d bytes, %v", len(got), err)
		}
	})
}

func TestWriteFileErrors(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		dir, _ := c.Mkdir(p, namespace.RootIno, "d", 0755)
		if err := c.WriteFile(p, dir, []byte("x")); !errors.Is(err, namespace.ErrIsDir) {
			t.Errorf("write to dir err = %v", err)
		}
		if _, err := c.ReadFile(p, dir); !errors.Is(err, namespace.ErrIsDir) {
			t.Errorf("read dir err = %v", err)
		}
		if err := c.WriteFile(p, 99999, nil); !errors.Is(err, namespace.ErrNotExist) {
			t.Errorf("write missing err = %v", err)
		}
	})
}

func TestLocalWriteFileMerges(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	payload := []byte("checkpoint bytes")
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/job", 0755)
		c.Decouple(p, "/job", decouplePolicy(policy.ConsWeak, policy.DurNone, 100))
		root, _ := c.DecoupledRoot()
		ino, _ := c.LocalCreate(p, root, "ckpt", 0644)
		if err := c.LocalWriteFile(p, ino, payload); err != nil {
			t.Errorf("local write: %v", err)
			return
		}
		if _, err := c.VolatileApply(p); err != nil {
			t.Errorf("merge: %v", err)
			return
		}
		// The merged global namespace knows the size, and the data is
		// readable through the normal path.
		in, err := cl.srv.Store().Resolve("/job/ckpt")
		if err != nil || in.Size != uint64(len(payload)) {
			t.Errorf("merged size = %d, %v", in.Size, err)
			return
		}
		got, err := c.ReadFile(p, in.Ino)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("read after merge = %q, %v", got, err)
		}
	})
}

func TestLocalWriteFileErrors(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		if err := c.LocalWriteFile(p, 1, nil); !errors.Is(err, ErrNotDecoupled) {
			t.Errorf("not decoupled err = %v", err)
		}
		c.MkdirAll(p, "/job", 0755)
		c.Decouple(p, "/job", decouplePolicy(policy.ConsInvisible, policy.DurNone, 100))
		root, _ := c.DecoupledRoot()
		sub, _ := c.LocalMkdir(p, root, "sub", 0755)
		if err := c.LocalWriteFile(p, sub, nil); !errors.Is(err, namespace.ErrIsDir) {
			t.Errorf("local write dir err = %v", err)
		}
		if err := c.LocalWriteFile(p, 424242, nil); !errors.Is(err, namespace.ErrNotExist) {
			t.Errorf("local write missing err = %v", err)
		}
	})
}

func TestRemoveFileData(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		ino, _ := c.Create(p, namespace.RootIno, "f", 0644)
		c.WriteFile(p, ino, []byte("bytes"))
		if err := c.RemoveFileData(p, ino); err != nil {
			t.Errorf("remove data: %v", err)
		}
		if err := c.RemoveFileData(p, ino); !errors.Is(err, rados.ErrNotFound) {
			t.Errorf("double remove err = %v", err)
		}
	})
}

// TestSpeculativeWriteFileRollback: a speculative LocalWriteFile journals
// a setattr, so it records an undo entry like every other speculative op —
// the undo log stays index for index with the journal — and a rejected
// one is rolled back to the attributes it overwrote. Without the entry
// the rollback of any later op ran off the end of the undo log
// ("rollback index 3 out of range (4 ops, 2 undos)"), and RecoverLocal
// refused a journal holding a setattr.
func TestSpeculativeWriteFileRollback(t *testing.T) {
	setup := func(t *testing.T, p runtime.Task, c *Client, dur policy.Durability) (job, root namespace.Ino) {
		job, err := c.MkdirAll(p, "/job", 0755)
		if err == nil {
			err = c.Decouple(p, "/job", decouplePolicy(policy.ConsSpeculative, dur, 100))
		}
		if err == nil {
			err = c.SetMergeMode(policy.ConsSpeculative)
		}
		if err != nil {
			t.Fatalf("setup: %v", err)
		}
		root, _ = c.DecoupledRoot()
		return job, root
	}
	localSize := func(c *Client, root namespace.Ino, name string) (uint64, error) {
		in, err := c.dec.store.Lookup(c.dec.localParent(root), name)
		if err != nil {
			return 0, err
		}
		return in.Size, nil
	}
	assertCleared := func(t *testing.T, c *Client) {
		t.Helper()
		if j, u := c.dec.jrnl.Len(), c.dec.undo.Len(); j != 0 || u != 0 {
			t.Errorf("after the merge the journal holds %d events and the undo log %d, want both empty", j, u)
		}
	}

	// Live: the rejected ops are a write to a file the interferer removed
	// and a create of a name the interferer took; the accepted ones — a
	// create and a write to it — stay.
	t.Run("live", func(t *testing.T) {
		cl := newCluster()
		c, intr := cl.client("c0"), cl.client("intr")
		cl.run(t, func(p runtime.Task) {
			job, root := setup(t, p, c, policy.DurNone)
			old, _ := c.LocalCreate(p, root, "old", 0644)
			if err := c.LocalWriteFile(p, old, []byte("v1")); err != nil {
				t.Fatalf("first write: %v", err)
			}
			if n, rej, err := c.SpeculativeApply(p); err != nil || n != 2 || len(rej) != 0 {
				t.Fatalf("first merge = %d applied, rejected %v, %v", n, rej, err)
			}
			assertCleared(t, c)

			x, _ := c.LocalCreate(p, root, "x", 0644)
			c.LocalWriteFile(p, x, []byte("data"))
			c.LocalWriteFile(p, old, []byte("a longer v2"))
			c.LocalCreate(p, root, "y", 0644)
			if j, u := c.dec.jrnl.Len(), c.dec.undo.Len(); j != 4 || u != 4 {
				t.Fatalf("journal holds %d events, undo log %d; want 4 and 4", j, u)
			}
			if err := intr.Unlink(p, job, "old"); err != nil {
				t.Fatalf("interfering unlink: %v", err)
			}
			if _, err := intr.Create(p, job, "y", 0600); err != nil {
				t.Fatalf("interfering create: %v", err)
			}

			n, rej, err := c.SpeculativeApply(p)
			if err != nil || n != 2 || len(rej) != 2 || rej[0] != 2 || rej[1] != 3 {
				t.Fatalf("merge = %d applied, rejected %v, %v; want 2 applied, [2 3] rejected", n, rej, err)
			}
			assertCleared(t, c)
			if size, err := localSize(c, root, "old"); err != nil || size != 2 {
				t.Errorf("rolled-back write left old at size %d (%v) in the local image, want 2", size, err)
			}
			if size, err := localSize(c, root, "x"); err != nil || size != 4 {
				t.Errorf("accepted write left x at size %d (%v), want 4", size, err)
			}
			if _, err := c.LocalLookup(root, "y"); !errors.Is(err, namespace.ErrNotExist) {
				t.Errorf("rolled-back create of y still in the local image: %v", err)
			}
			if in, err := cl.srv.Store().Resolve("/job/x"); err != nil || in.Size != 4 {
				t.Errorf("global /job/x = %+v, %v; want size 4", in, err)
			}
		})
	})

	// Recovered: the client dies after a local persist; the reborn
	// client's image and undo log are rebuilt from the journal, setattr
	// included, and the merge rolls back the create the interferer beat
	// and the write to it.
	t.Run("recovered", func(t *testing.T) {
		cl := newCluster()
		c, intr := cl.client("c0"), cl.client("intr")
		cl.run(t, func(p runtime.Task) {
			job, root := setup(t, p, c, policy.DurLocal)
			x, _ := c.LocalCreate(p, root, "x", 0644)
			c.LocalWriteFile(p, x, []byte("data"))
			c.LocalCreate(p, root, "y", 0644)
			if err := c.LocalPersist(p); err != nil {
				t.Fatalf("local persist: %v", err)
			}
			if _, err := intr.Create(p, job, "x", 0600); err != nil {
				t.Fatalf("interfering create: %v", err)
			}
			c.Crash(p)
			if err := c.Restart(p); err != nil {
				t.Fatalf("restart: %v", err)
			}
			if n, err := c.RecoverLocal(p); err != nil || n != 3 {
				t.Fatalf("recover local = %d, %v; want 3 events", n, err)
			}
			if size, err := localSize(c, root, "x"); err != nil || size != 4 {
				t.Errorf("rebuilt image has x at size %d (%v), want 4", size, err)
			}
			n, rej, err := c.SpeculativeApply(p)
			if err != nil || n != 1 || len(rej) != 2 || rej[0] != 0 || rej[1] != 1 {
				t.Fatalf("merge = %d applied, rejected %v, %v; want 1 applied, [0 1] rejected", n, rej, err)
			}
			assertCleared(t, c)
			if _, err := c.LocalLookup(root, "x"); !errors.Is(err, namespace.ErrNotExist) {
				t.Errorf("rolled-back create of x still in the local image: %v", err)
			}
			if _, err := c.LocalLookup(root, "y"); err != nil {
				t.Errorf("accepted create of y lost from the local image: %v", err)
			}
			if in, err := cl.srv.Store().Resolve("/job/x"); err != nil || in.Mode != 0600 || in.Size != 0 {
				t.Errorf("global /job/x = %+v, %v; want the interferer's empty file", in, err)
			}
		})
	})
}
