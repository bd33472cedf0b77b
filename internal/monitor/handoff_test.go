package monitor

import (
	"cmp"
	"fmt"
	"testing"

	"cudele/internal/mds"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/runtime"
)

// TestHandoffDurabilityMatrix runs every way a subtree changes hands —
// Migrate, Place, and Place followed by a registration there, which is
// how a registered subtree is put on a rank — over eight ways rank 0 may
// or may not journal or save the ten flushed creates made in /a/job
// before the move, and two crashes after the flip: of the destination,
// and of the source followed by the destination, so that only the object
// store and the journals answer. A create survives exactly when rank 0
// journaled or saved it or the move was a Migrate, and a move off a rank
// whose journal holds nothing its last save missed writes no object
// unless it is a Migrate.
func TestHandoffDurabilityMatrix(t *testing.T) {
	const n = 10
	const rpcs, stream = "consistency: rpcs\n", "consistency: rpcs\ndurability: stream\n"
	setups := []struct {
		name     string
		switchOn bool   // the ranks' switch, for mutations no registered root governs
		reg      string // the policies file registered on /a/job before the creates, "" for none
		rereg    string // the one that replaces it after the creates, "" for none
		moved    string
		journals bool
		after    string // what rank 0 does after the creates: "", "restart" (only its replayed journal holds them) or "save"
	}{
		{"unregistered-switch-off", false, "", "", "/a/job", false, ""},
		{"unregistered-switch-on", true, "", "", "/a/job", true, ""},
		{"registered-rpcs", false, rpcs, "", "/a/job", false, ""},
		{"registered-rpcs+stream", false, stream, "", "/a/job", true, ""},
		{"rpcs+stream-re-registered-rpcs", false, stream, rpcs, "/a/job", true, ""},
		{"unregistered-root-over-rpcs+stream-child", false, stream, "", "/a", true, ""},
		{"rpcs+stream-source-restarted", false, stream, "", "/a/job", true, "restart"},
		{"rpcs+stream-then-saved", false, stream, "", "/a/job", true, "save"},
	}
	for _, su := range setups {
		for _, move := range []string{"migrate", "place", "register"} {
			for _, crash := range []string{"dst", "src-then-dst"} {
				t.Run(fmt.Sprintf("%s/%s/%s", su.name, move, crash), func(t *testing.T) {
					eng, obj, cl, m := newPlaceCluster(5, 2)
					run(t, eng, func(p runtime.Task) {
						job, err := cl.Rank(0).Store().MkdirAll("/a/job", namespace.CreateAttrs{Mode: 0755})
						if err == nil {
							err = cl.Rank(0).SaveStore(p)
						}
						for r := range cl.Ranks() {
							cl.Rank(r).SetStream(su.switchOn)
						}
						if err == nil && su.reg != "" {
							err = register(p, m, "/a/job", su.reg)
						}
						for i := 0; err == nil && i < n; i++ {
							err = cl.Call(p, &mds.Request{Op: mds.OpCreate, Client: "c0", Route: "/a/job",
								Parent: job.Ino, Name: fmt.Sprintf("f%d", i), Mode: 0644}).(*mds.Reply).Err
						}
						if err == nil && su.rereg != "" {
							err = register(p, m, "/a/job", su.rereg)
						}
						if err != nil {
							t.Fatalf("setup: %v", err)
						}
						if got, want := cl.Rank(0).Metrics().Journaled, map[bool]uint64{true: n}[su.journals]; got != want {
							t.Fatalf("rank 0 journaled %d of %d creates, want %d", got, n, want)
						}
						cl.Rank(0).FlushJournal(p)
						switch su.after {
						case "restart":
							cl.Rank(0).Crash(p)
							err = m.Restart(p, 0)
						case "save":
							err = cl.Rank(0).SaveStore(p)
						}
						if err != nil {
							t.Fatalf("%s rank 0: %v", su.after, err)
						}

						writes := obj.Stats().Writes
						switch move {
						case "migrate":
							err = m.Migrate(p, su.moved, 1)
						case "place":
							err = m.Place(p, su.moved, 1)
						case "register":
							reg := ""
							if su.moved == "/a/job" {
								reg = cmp.Or(su.rereg, su.reg)
							}
							if err = m.Place(p, su.moved, 1); err == nil {
								err = register(p, m, su.moved, reg)
							}
						}
						if err != nil || cl.Table().RankFor(su.moved) != 1 {
							t.Fatalf("%s %s onto rank 1: %v", move, su.moved, err)
						}
						saves := su.journals && su.after != "save" || move == "migrate"
						if wrote := obj.Stats().Writes - writes; (wrote != 0) != saves {
							t.Errorf("the move wrote %d objects", wrote)
						}

						order := []int{1}
						if crash == "src-then-dst" {
							order = []int{0, 1}
						}
						for _, r := range order {
							cl.Rank(r).Crash(p)
							if err := m.Restart(p, r); err != nil {
								t.Fatalf("restart rank %d: %v", r, err)
							}
						}
						survived := 0
						for i := 0; i < n; i++ {
							if _, err := cl.Rank(1).Store().Resolve(fmt.Sprintf("/a/job/f%d", i)); err == nil {
								survived++
							}
						}
						if want := map[bool]int{true: n}[su.journals || su.after == "save" || move == "migrate"]; survived != want {
							t.Errorf("%d of %d flushed creates survive, want %d", survived, n, want)
						}
					})
				})
			}
		}
	}
}

// register registers the policies file text on path for client c0.
func register(p runtime.Task, m *Monitor, path, text string) error {
	pol, err := policy.ParseFile(text)
	if err == nil {
		_, err = m.RegisterPolicy(p, path, pol, "c0")
	}
	return err
}
