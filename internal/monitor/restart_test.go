package monitor

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cudele/internal/mds"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/runtime"
	"cudele/internal/transport"
)

// TestRestartSkipsLostRoot: /lost is made by RPC after rank 0's last
// save and before its registration, so nothing durable holds it and it
// dies with the rank. The restart still succeeds: /lost's registration is
// skipped, /kept's comes back, and the rank serves — the owner's create
// in /kept goes through and an interferer's is refused.
func TestRestartSkipsLostRoot(t *testing.T) {
	eng, _, cl, m := newPlaceCluster(5, 1)
	cl.Rank(0).OpenSession("c1")
	run(t, eng, func(p runtime.Task) {
		kept, err := cl.Rank(0).Store().MkdirAll("/kept", namespace.CreateAttrs{Mode: 0755})
		if err == nil {
			err = cl.Rank(0).SaveStore(p)
		}
		if err == nil {
			err = cl.Call(p, &mds.Request{Op: mds.OpMkdir, Client: "c0", Route: "/",
				Parent: namespace.RootIno, Name: "lost", Mode: 0755}).(*mds.Reply).Err
		}
		for _, path := range []string{"/kept", "/lost"} {
			if err == nil {
				err = register(p, m, path, "interfere: block\n")
			}
		}
		if err != nil {
			t.Fatalf("setup: %v", err)
		}

		cl.Rank(0).Crash(p)
		if err := m.Restart(p, 0); err != nil {
			t.Fatalf("restart with a lost registered root: %v", err)
		}
		store := cl.Rank(0).Store()
		if _, err := store.Resolve("/lost"); !errors.Is(err, namespace.ErrNotExist) {
			t.Errorf("resolve /lost after the restart = %v, want ENOENT", err)
		}
		st, _ := m.Lookup("/kept")
		if in, err := store.Resolve("/kept"); err != nil || in.Policy != st.Policy {
			t.Errorf("/kept after the restart holds %+v (%v), want the monitor's registration", in, err)
		}
		if got := store.ReservedRanges(); got != 1 {
			t.Errorf("rank 0 reserves %d grants, want /kept's", got)
		}
		if _, ok := m.Lookup("/lost"); !ok {
			t.Error("the restart dropped the monitor's registration of /lost")
		}
		create := func(client, name string) error {
			return cl.Call(p, &mds.Request{Op: mds.OpCreate, Client: client, Route: "/kept",
				Parent: kept.Ino, Name: name, Mode: 0644}).(*mds.Reply).Err
		}
		if err := create("c0", "f"); err != nil {
			t.Errorf("owner's create in /kept after the restart: %v", err)
		}
		if err := create("c1", "intruder"); !errors.Is(err, namespace.ErrBusy) {
			t.Errorf("interferer's create in /kept after the restart = %v, want EBUSY", err)
		}
	})
}

// TestRegistrationInvariantEnumerated runs every sequence of at most
// four steps over two ranks, drawn from nine: register /a or /a/job,
// unregister either, place /a/job on rank 1, migrate /a to rank 1 or
// back to rank 0, and crash and restart rank 0 or rank 1. After every
// step, each rank that holds a registered root — the table's owner of
// the path, or the owner of a placement under it — carries exactly the
// monitor's stamped policy there, and no rank carries a policy, a bound's
// included, on a path the monitor does not list. The sequences of four
// steps have every shorter one as a prefix, so 9^4 runs cover all 7 381.
func TestRegistrationInvariantEnumerated(t *testing.T) {
	const block = "interfere: block\n"
	steps := []struct {
		name string
		do   func(p runtime.Task, cl *mds.Cluster, m *Monitor) error
	}{
		{"register /a", func(p runtime.Task, _ *mds.Cluster, m *Monitor) error { return register(p, m, "/a", block) }},
		{"register /a/job", func(p runtime.Task, _ *mds.Cluster, m *Monitor) error { return register(p, m, "/a/job", block) }},
		{"unregister /a", func(p runtime.Task, _ *mds.Cluster, m *Monitor) error { return m.Unregister(p, "/a") }},
		{"unregister /a/job", func(p runtime.Task, _ *mds.Cluster, m *Monitor) error { return m.Unregister(p, "/a/job") }},
		{"place /a/job 1", func(p runtime.Task, _ *mds.Cluster, m *Monitor) error { return m.Place(p, "/a/job", 1) }},
		{"migrate /a 1", func(p runtime.Task, _ *mds.Cluster, m *Monitor) error { return m.Migrate(p, "/a", 1) }},
		{"migrate /a 0", func(p runtime.Task, _ *mds.Cluster, m *Monitor) error { return m.Migrate(p, "/a", 0) }},
		{"restart 0", func(p runtime.Task, cl *mds.Cluster, m *Monitor) error {
			cl.Rank(0).Crash(p)
			return m.Restart(p, 0)
		}},
		{"restart 1", func(p runtime.Task, cl *mds.Cluster, m *Monitor) error {
			cl.Rank(1).Crash(p)
			return m.Restart(p, 1)
		}},
	}
	const depth = 4
	seq := make([]int, depth)
	for n := range len(steps) * len(steps) * len(steps) * len(steps) {
		for i, k := depth-1, n; i >= 0; i, k = i-1, k/len(steps) {
			seq[i] = k % len(steps)
		}
		eng, _, cl, m := newPlaceCluster(5, 2)
		run(t, eng, func(p runtime.Task) {
			if _, err := cl.Rank(0).Store().MkdirAll("/a/job", namespace.CreateAttrs{Mode: 0755}); err != nil {
				t.Fatalf("mkdir: %v", err)
			}
			if err := cl.Rank(0).SaveStore(p); err != nil {
				t.Fatalf("save: %v", err)
			}
			var done []string
			for _, s := range seq {
				step := steps[s]
				done = append(done, step.name)
				if err := step.do(p, cl, m); err != nil && !errors.Is(err, ErrUnknownSubtree) {
					t.Fatalf("%s: %v", strings.Join(done, ", "), err)
				}
				if msg := registrationMismatch(cl, m); msg != "" {
					t.Fatalf("after %s: %s", strings.Join(done, ", "), msg)
				}
			}
		})
	}
}

// registrationMismatch checks the registration invariant on every rank
// and describes the first break, or returns "".
func registrationMismatch(cl *mds.Cluster, m *Monitor) string {
	t := cl.Table()
	for _, st := range m.registered() {
		for r := range cl.Ranks() {
			holds := t.RankFor(st.Path) == r
			for _, placed := range t.Paths() {
				holds = holds || transport.HasPathPrefix(placed, st.Path) && t.RankFor(placed) == r
			}
			if !holds {
				continue
			}
			in, err := cl.Rank(r).Store().Resolve(st.Path)
			if err != nil {
				return fmt.Sprintf("rank %d holds %s: %v", r, st.Path, err)
			}
			if in.Policy != st.Policy {
				return fmt.Sprintf("rank %d holds %s with policy %+v, the monitor lists %+v", r, st.Path, in.Policy, st.Policy)
			}
		}
	}
	for r := range cl.Ranks() {
		store := cl.Rank(r).Store()
		var msg string
		store.Walk(namespace.RootIno, func(path string, in *namespace.Inode) error {
			if _, ok := m.Lookup(path); in.Policy != nil && !ok && msg == "" {
				msg = fmt.Sprintf("rank %d carries a policy on %s, which the monitor does not list", r, path)
			}
			return nil
		})
		if msg != "" {
			return msg
		}
	}
	return ""
}

// TestAttachRacingCrashIsShutdown: /a/job is placed on rank 1, and rank 1
// crashes 2.0–2.2 ms into a RegisterPolicy of /a, in 5 µs steps — while
// the registration's AttachMsg to rank 1, which holds /a as the ancestor
// of its placement, waits for the rank's CPU or pays its resolve. The
// attach then answers ErrShutdown, never a miss in the crashed rank's
// empty store, so the monitor records nothing and the restart hands rank
// 1 no registration: it holds no policy on /a. A registration delivered
// before the crash is handed back by the restart. What the owner, rank 0,
// keeps of a change whose second delivery failed is
// TestFailedDeliveryRollsBackOwner's.
func TestAttachRacingCrashIsShutdown(t *testing.T) {
	const from, to, step = 2 * time.Millisecond, 2200 * time.Microsecond, 5 * time.Microsecond
	shutdowns := 0
	for at := from; at < to; at += step {
		eng, _, cl, m := newPlaceCluster(5, 2)
		populate(t, eng, cl.Rank(0), "/a/job", 2)
		var regErr, restartErr error
		run(t, eng, func(p runtime.Task) {
			if err := errors.Join(cl.Rank(0).SaveStore(p), m.Place(p, "/a/job", 1)); err != nil {
				t.Fatalf("setup: %v", err)
			}
			eng.Spawn("register", func(p runtime.Task) { regErr = register(p, m, "/a", "interfere: block\n") })
			eng.Spawn("crash", func(p runtime.Task) {
				p.Sleep(at)
				cl.Rank(1).Crash(p)
				restartErr = m.Restart(p, 1)
			})
		})
		if restartErr != nil {
			t.Fatalf("crash at %v: restart: %v", at, restartErr)
		}
		in, err := cl.Rank(1).Store().Resolve("/a")
		if err != nil {
			t.Fatalf("crash at %v: rank 1 lost /a: %v", at, err)
		}
		st, listed := m.Lookup("/a")
		switch {
		case errors.Is(regErr, mds.ErrShutdown):
			shutdowns++
			if listed && st.Policy != nil || in.Policy != nil {
				t.Errorf("crash at %v: a refused registration left the monitor listing %v and rank 1 holding %+v", at, listed, in.Policy)
			}
		case regErr != nil:
			t.Errorf("crash at %v: register = %v, want success or ErrShutdown", at, regErr)
		case in.Policy != st.Policy:
			t.Errorf("crash at %v: rank 1 holds %+v after the restart, want the monitor's registration", at, in.Policy)
		}
	}
	if shutdowns == 0 {
		t.Error("no crash time landed inside the registration's attach")
	}
}

// TestFailedDeliveryRollsBackOwner: /a/job is placed on rank 1, so a
// change to /a's registration goes to rank 0, the owner, and then to rank
// 1; rank 1 crashes 2.0–2.2 ms in, in 5 µs steps. When the change fails
// at rank 1, rank 0 has already taken it, and must be handed back what
// the monitor lists: nothing for a first registration, the old policy
// for a replacement, the registration itself for an Unregister. Whatever
// the crash time, both ranks end holding exactly the monitor's record.
func TestFailedDeliveryRollsBackOwner(t *testing.T) {
	const from, to, step = 2 * time.Millisecond, 2200 * time.Microsecond, 5 * time.Microsecond
	for _, tc := range []struct {
		name   string
		before string // /a's registration before the change; "" for none
		change func(p runtime.Task, m *Monitor) error
	}{
		{"register", "", func(p runtime.Task, m *Monitor) error { return register(p, m, "/a", "interfere: block\n") }},
		{"replace", "interfere: allow\n", func(p runtime.Task, m *Monitor) error { return register(p, m, "/a", "interfere: block\n") }},
		{"unregister", "interfere: block\n", func(p runtime.Task, m *Monitor) error { return m.Unregister(p, "/a") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			failed := 0
			for at := from; at < to; at += step {
				eng, _, cl, m := newPlaceCluster(5, 2)
				populate(t, eng, cl.Rank(0), "/a/job", 2)
				var changeErr, restartErr error
				var old *policy.Policy
				run(t, eng, func(p runtime.Task) {
					if err := errors.Join(cl.Rank(0).SaveStore(p), m.Place(p, "/a/job", 1)); err != nil {
						t.Fatalf("setup: %v", err)
					}
					if tc.before != "" {
						if err := register(p, m, "/a", tc.before); err != nil {
							t.Fatalf("setup: %v", err)
						}
						st, _ := m.Lookup("/a")
						old = st.Policy
					}
					eng.Spawn("change", func(p runtime.Task) { changeErr = tc.change(p, m) })
					eng.Spawn("crash", func(p runtime.Task) {
						p.Sleep(at)
						cl.Rank(1).Crash(p)
						restartErr = m.Restart(p, 1)
					})
				})
				if restartErr != nil {
					t.Fatalf("crash at %v: restart: %v", at, restartErr)
				}
				var listed *policy.Policy
				if st, ok := m.Lookup("/a"); ok {
					listed = st.Policy
				}
				if changeErr != nil {
					failed++
					if !errors.Is(changeErr, mds.ErrShutdown) {
						t.Errorf("crash at %v: change = %v, want success or ErrShutdown", at, changeErr)
					}
					if listed != old {
						t.Errorf("crash at %v: a failed change left the monitor listing %+v, want %+v", at, listed, old)
					}
				}
				for r := 0; r < 2; r++ {
					in, err := cl.Rank(r).Store().Resolve("/a")
					if err != nil {
						t.Fatalf("crash at %v: rank %d lost /a: %v", at, r, err)
					}
					if in.Policy != listed {
						t.Errorf("crash at %v (change error %v): rank %d enforces %+v on /a, the monitor lists %+v", at, changeErr, r, in.Policy, listed)
					}
				}
			}
			if failed == 0 {
				t.Error("no crash time failed the change at rank 1")
			}
		})
	}
}
