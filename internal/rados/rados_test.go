package rados

import (
	"bytes"
	"errors"
	"fmt"
	goruntime "runtime"
	"testing"
	"testing/quick"

	"cudele/internal/model"
	"cudele/internal/runtime"
	"cudele/internal/sim"
)

func newTestCluster(t *testing.T) (runtime.Runtime, *Cluster) {
	t.Helper()
	e := sim.NewEngine(7)
	return e, New(e, model.Default())
}

// run executes fn as a sim process and drives the engine to completion.
func run(t *testing.T, e runtime.Runtime, fn func(p runtime.Task)) {
	t.Helper()
	e.Spawn("test", fn)
	e.RunAll()
	if err := e.LeakCheck(); err != nil {
		t.Fatalf("leaked procs: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	e, c := newTestCluster(t)
	oid := ObjectID{Pool: "meta", Name: "obj1"}
	run(t, e, func(p runtime.Task) {
		c.Write(p, oid, []byte("hello"))
		got, err := c.Read(p, oid)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if string(got) != "hello" {
			t.Errorf("read = %q, want hello", got)
		}
	})
}

func TestWriteOverwrites(t *testing.T) {
	e, c := newTestCluster(t)
	oid := ObjectID{Pool: "meta", Name: "obj1"}
	run(t, e, func(p runtime.Task) {
		c.Write(p, oid, []byte("aaaa"))
		c.Write(p, oid, []byte("bb"))
		got, _ := c.Read(p, oid)
		if string(got) != "bb" {
			t.Errorf("after overwrite = %q, want bb", got)
		}
	})
}

func TestReadMissing(t *testing.T) {
	e, c := newTestCluster(t)
	run(t, e, func(p runtime.Task) {
		_, err := c.Read(p, ObjectID{Pool: "meta", Name: "nope"})
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("err = %v, want ErrNotFound", err)
		}
	})
}

func TestReadReturnsCopy(t *testing.T) {
	e, c := newTestCluster(t)
	oid := ObjectID{Pool: "meta", Name: "obj"}
	run(t, e, func(p runtime.Task) {
		c.Write(p, oid, []byte("orig"))
		got, _ := c.Read(p, oid)
		got[0] = 'X'
		again, _ := c.Read(p, oid)
		if string(again) != "orig" {
			t.Errorf("mutating a read corrupted the store: %q", again)
		}
	})
}

// TestWriteKeepsCallerSlice: a write hands its slice to the store. A
// Write of n fresh bytes to the memory store allocates fewer than n bytes
// — it copies nothing — and a later write to the object, whole or torn,
// replaces its bytes instead of writing into them, so every slice handed
// over earlier still reads as it did.
func TestWriteKeepsCallerSlice(t *testing.T) {
	const n = 1 << 20
	e, c := newTestCluster(t)
	oid := ObjectID{Pool: "meta", Name: "obj"}
	run(t, e, func(p runtime.Task) {
		if err := c.Write(p, oid, []byte("seed")); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		first := bytes.Repeat([]byte{'a'}, n)
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		err := c.Write(p, oid, first)
		goruntime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; err != nil || got >= n {
			t.Errorf("a write of %d fresh bytes allocated %d bytes (err %v), want fewer", n, got, err)
		}
		torn := bytes.Repeat([]byte{'b'}, n)
		inj := NewFaultInjector(1)
		inj.TornWriteProb, inj.MaxFaults = 1, 1
		c.SetFaults(inj)
		if err := c.Write(p, oid, torn); !errors.Is(err, ErrIO) {
			t.Errorf("torn write err = %v, want ErrIO", err)
		}
		if err := c.Write(p, oid, []byte("c")); err != nil {
			t.Errorf("write: %v", err)
		}
		if !bytes.Equal(first, bytes.Repeat([]byte{'a'}, n)) || !bytes.Equal(torn, bytes.Repeat([]byte{'b'}, n)) {
			t.Errorf("a later write changed the bytes an earlier write handed over")
		}
		if got, _ := c.Read(p, oid); string(got) != "c" {
			t.Errorf("read = %q, want c", got)
		}
	})
}

// TestWriteKeepsCallerSliceParallel: on the real backend, with a log
// attached, tasks in parallel hand fresh slices, small and large, to one
// shared object and to one of their own, and read the shared one back
// while the others overwrite it. Every read is one writer's payload
// whole, and no handed-over slice changes. Run it under -race: a store
// that wrote into an object's bytes, or a log that wrote a large payload
// after its writer had moved on, is a data race here.
func TestWriteKeepsCallerSliceParallel(t *testing.T) {
	c, fs := newLogCluster(t, 45, t.TempDir())
	const tasks, rounds = 4, 25
	shared := ObjectID{Pool: "meta", Name: "shared"}
	for w := 0; w < tasks; w++ {
		own := ObjectID{Pool: "meta", Name: fmt.Sprint("own.", w)}
		c.eng.Spawn(fmt.Sprint("writer", w), func(p runtime.Task) {
			var given [][]byte
			for r := 0; r < rounds; r++ {
				b := bytes.Repeat([]byte{byte(w*rounds + r)}, 1+r%3*testLargeRecord)
				given = append(given, b)
				oid := own
				if r%2 == 0 {
					oid = shared
				}
				if err := c.Write(p, oid, b); err != nil {
					t.Errorf("write %v: %v", oid, err)
					return
				}
				got, err := c.Read(p, shared)
				if err == nil && (len(got) == 0 || !bytes.Equal(got, bytes.Repeat(got[:1], len(got)))) {
					err = fmt.Errorf("read %d bytes that no one writer wrote", len(got))
				}
				if err != nil {
					t.Errorf("read %v: %v", shared, err)
				}
			}
			for r, b := range given {
				if !bytes.Equal(b, bytes.Repeat([]byte{byte(w*rounds + r)}, len(b))) {
					t.Errorf("writer %d: the slice of round %d changed after its write", w, r)
				}
			}
		})
	}
	c.eng.RunAll()
	if st := fs.Stats(); st.Records != tasks*rounds {
		t.Fatalf("the log staged %d records, want %d", st.Records, tasks*rounds)
	}
}

func TestRemoveAndExists(t *testing.T) {
	e, c := newTestCluster(t)
	oid := ObjectID{Pool: "meta", Name: "obj"}
	run(t, e, func(p runtime.Task) {
		c.Write(p, oid, []byte("x"))
		if _, err := c.Stat(p, oid); err != nil {
			t.Errorf("object missing after write: %v", err)
		}
		if err := c.Remove(p, oid); err != nil {
			t.Errorf("remove: %v", err)
		}
		if _, err := c.Stat(p, oid); !errors.Is(err, ErrNotFound) {
			t.Errorf("stat after remove err = %v, want ErrNotFound", err)
		}
		if err := c.Remove(p, oid); !errors.Is(err, ErrNotFound) {
			t.Errorf("second remove err = %v, want ErrNotFound", err)
		}
	})
}

func TestStat(t *testing.T) {
	e, c := newTestCluster(t)
	oid := ObjectID{Pool: "meta", Name: "obj"}
	run(t, e, func(p runtime.Task) {
		c.Write(p, oid, make([]byte, 123))
		n, err := c.Stat(p, oid)
		if err != nil || n != 123 {
			t.Errorf("stat = %d,%v, want 123,nil", n, err)
		}
		_, err = c.Stat(p, ObjectID{Pool: "meta", Name: "gone"})
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("stat missing err = %v", err)
		}
	})
}

func TestOmap(t *testing.T) {
	e, c := newTestCluster(t)
	oid := ObjectID{Pool: "meta", Name: "dir.1"}
	run(t, e, func(p runtime.Task) {
		c.OmapSet(p, oid, map[string][]byte{"b": []byte("2"), "a": []byte("1")})
		v, err := c.OmapGet(p, oid, "a")
		if err != nil || string(v) != "1" {
			t.Errorf("omap get a = %q,%v", v, err)
		}
		if v, err := c.OmapGet(p, oid, "b"); err != nil || string(v) != "2" {
			t.Errorf("omap get b = %q,%v", v, err)
		}
		if err := c.OmapRemove(p, oid, "a"); err != nil {
			t.Errorf("omap remove: %v", err)
		}
		if _, err := c.OmapGet(p, oid, "a"); !errors.Is(err, ErrNotFound) {
			t.Errorf("removed key err = %v", err)
		}
		if err := c.OmapRemove(p, oid, "zz"); !errors.Is(err, ErrNotFound) {
			t.Errorf("missing key remove err = %v", err)
		}
	})
}

func TestList(t *testing.T) {
	e, c := newTestCluster(t)
	run(t, e, func(p runtime.Task) {
		c.Write(p, ObjectID{Pool: "a", Name: "x"}, nil)
		c.Write(p, ObjectID{Pool: "a", Name: "y"}, nil)
		c.Write(p, ObjectID{Pool: "b", Name: "z"}, nil)
		got := c.List(p, "a")
		if len(got) != 2 || got[0] != "x" || got[1] != "y" {
			t.Errorf("list a = %v", got)
		}
	})
}

func TestPlacementDeterministic(t *testing.T) {
	e, c := newTestCluster(t)
	_ = e
	oid := ObjectID{Pool: "meta", Name: "obj"}
	a := c.primary(oid)
	b := c.primary(oid)
	if a != b {
		t.Fatal("placement not deterministic")
	}
}

func TestPlacementSpreads(t *testing.T) {
	e, c := newTestCluster(t)
	_ = e
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		oid := ObjectID{Pool: "meta", Name: stripeName("j", i)}
		seen[c.primary(oid).ID] = true
	}
	if len(seen) != len(c.osds) {
		t.Fatalf("200 objects hit only %d/%d OSDs", len(seen), len(c.osds))
	}
}

func TestWriteChargesTime(t *testing.T) {
	e, c := newTestCluster(t)
	var took runtime.Time
	run(t, e, func(p runtime.Task) {
		start := p.Now()
		c.Write(p, ObjectID{Pool: "meta", Name: "big"}, make([]byte, 12<<20))
		took = p.Now() - start
	})
	// 12 MB at 120 MB/s disk is at least 100 ms.
	if took.Seconds() < 0.1 {
		t.Fatalf("12MB write took %.3fs, want >= 0.1s", took.Seconds())
	}
}

func TestStriperRoundTrip(t *testing.T) {
	e, c := newTestCluster(t)
	s := NewStriper(c)
	data := make([]byte, 10<<20) // 2.5 stripes at 4 MB
	for i := range data {
		data[i] = byte(i * 31)
	}
	run(t, e, func(p runtime.Task) {
		s.Write(p, "journal", "client0", data)
		got, err := s.Read(p, "journal", "client0")
		if err != nil {
			t.Errorf("striper read: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("striper round trip mismatch")
		}
	})
	// 10 MB / 4 MB = 3 stripe objects.
	if n := c.Stats().Objects; n != 3 {
		t.Fatalf("stripe objects = %d, want 3", n)
	}
}

func TestStriperParallelBeatsSerial(t *testing.T) {
	// Striping across independent OSD disks should be faster than one
	// serial append of the same bytes to a single object.
	cfg := model.Default()
	data := make([]byte, 24<<20)

	e1 := sim.NewEngine(1)
	c1 := New(e1, cfg)
	var striped runtime.Time
	e1.Spawn("w", func(p runtime.Task) {
		start := p.Now()
		NewStriper(c1).Write(p, "j", "x", data)
		striped = p.Now() - start
	})
	e1.RunAll()

	e2 := sim.NewEngine(1)
	c2 := New(e2, cfg)
	var serial runtime.Time
	e2.Spawn("w", func(p runtime.Task) {
		start := p.Now()
		c2.Write(p, ObjectID{Pool: "j", Name: "x"}, data)
		serial = p.Now() - start
	})
	e2.RunAll()

	if float64(striped) > 0.8*float64(serial) {
		t.Fatalf("striped %v not faster than serial %v", striped, serial)
	}
}

func TestStriperRemove(t *testing.T) {
	e, c := newTestCluster(t)
	s := NewStriper(c)
	run(t, e, func(p runtime.Task) {
		s.Write(p, "j", "x", make([]byte, 9<<20))
		if err := s.Remove(p, "j", "x"); err != nil {
			t.Errorf("remove: %v", err)
		}
		if _, err := s.Read(p, "j", "x"); !errors.Is(err, ErrNotFound) {
			t.Errorf("read after remove err = %v", err)
		}
		if err := s.Remove(p, "j", "x"); !errors.Is(err, ErrNotFound) {
			t.Errorf("double remove err = %v", err)
		}
	})
}

func TestStriperEmptyWrite(t *testing.T) {
	e, c := newTestCluster(t)
	s := NewStriper(c)
	run(t, e, func(p runtime.Task) {
		s.Write(p, "j", "empty", nil)
		got, err := s.Read(p, "j", "empty")
		if err != nil || len(got) != 0 {
			t.Errorf("empty round trip = %v,%v", got, err)
		}
	})
}

func TestStats(t *testing.T) {
	e, c := newTestCluster(t)
	run(t, e, func(p runtime.Task) {
		c.Write(p, ObjectID{Pool: "a", Name: "x"}, make([]byte, 10))
		c.Read(p, ObjectID{Pool: "a", Name: "x"})
		c.Remove(p, ObjectID{Pool: "a", Name: "x"})
	})
	st := c.Stats()
	if st.Writes != 1 || st.Reads != 1 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesWritten != 10 || st.BytesRead != 10 {
		t.Fatalf("byte stats = %+v", st)
	}
}

// Property: any sequence of write/append/read through the striper
// reassembles exactly.
func TestStriperQuick(t *testing.T) {
	f := func(chunks [][]byte) bool {
		var want []byte
		for _, ch := range chunks {
			want = append(want, ch...)
		}
		cfg := model.Default()
		cfg.StripeUnit = 64 // tiny stripes to force many objects
		e := sim.NewEngine(3)
		c := New(e, cfg)
		s := NewStriper(c)
		ok := true
		e.Spawn("w", func(p runtime.Task) {
			s.Write(p, "j", "q", want)
			got, err := s.Read(p, "j", "q")
			if err != nil || !bytes.Equal(got, want) {
				ok = false
			}
		})
		e.RunAll()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
