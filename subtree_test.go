package cudele

import (
	"fmt"
	"strings"
	"testing"

	"cudele/internal/monitor"
	"cudele/internal/trace"
)

// TestSubtreeRecordIsOneAndCurrent: the monitor keeps one record per
// subtree. A registration is that record, its epoch is the epoch of the
// change that last touched it, its move count counts committed handoffs
// (a migration, or a Place onto another rank), and its rank is whatever
// the routing table says.
func TestSubtreeRecordIsOneAndCurrent(t *testing.T) {
	cl := NewCluster(WithMDSRanks(2))
	c, other := cl.NewClient("client.0"), cl.NewClient("client.1")
	mon, table := cl.Monitor(), cl.Metadata().Table()
	record := func(path string) *Subtree {
		t.Helper()
		for _, st := range cl.Subtrees() {
			if st.Path == path {
				return st
			}
		}
		t.Fatalf("no record for %s", path)
		return nil
	}
	epoch := func() uint64 {
		reg := trace.NewRegistry()
		mon.FillMetrics(reg)
		v, _ := reg.Value("cudele_mon_epoch")
		return uint64(v)
	}
	check := func(step string, reg *Subtree, moves int) {
		t.Helper()
		if got, ok := mon.Lookup("/a/dec"); !ok || got != reg || record("/a/dec") != reg {
			t.Errorf("after %s: Lookup = %p, %v and the listed record is %p; want the registration %p",
				step, got, ok, record("/a/dec"), reg)
		}
		if reg.Epoch != epoch() {
			t.Errorf("after %s: record epoch %d, monitor epoch %d", step, reg.Epoch, epoch())
		}
		if reg.Moves != moves {
			t.Errorf("after %s: record moves %d, want %d", step, reg.Moves, moves)
		}
		want := fmt.Sprintf("epoch=%-3d rank=%d ", epoch(), table.RankFor("/a/dec"))
		if desc := mon.Describe(); !strings.Contains(desc, want) {
			t.Errorf("after %s: Describe lacks %q (the monitor's epoch, the table's rank):\n%s", step, want, desc)
		}
	}
	cl.Run(func(p Proc) {
		if _, err := c.MkdirAll(p, "/a/dec", 0755); err != nil {
			t.Fatalf("mkdirall: %v", err)
		}
		if err := mon.Place(p, "/a", 1); err != nil {
			t.Fatalf("place /a: %v", err)
		}
		if st := record("/a"); st.Epoch != epoch() {
			t.Errorf("after place: /a record epoch %d, monitor epoch %d", st.Epoch, epoch())
		}

		reg, err := cl.DecouplePolicy(p, c, "/a/dec", &Policy{
			Consistency: ConsWeak, Durability: DurNone, AllocatedInodes: 100, Interfere: InterfereBlock,
		})
		if err != nil {
			t.Fatalf("decouple: %v", err)
		}
		check("register", reg, 0)
		if err := mon.Place(p, "/a/dec", 0); err != nil {
			t.Fatalf("place /a/dec: %v", err)
		}
		check("place", reg, 1)
		if err := cl.Migrate(p, "/a/dec", 1); err != nil {
			t.Fatalf("migrate: %v", err)
		}
		check("migrate", reg, 2)
		if got := table.RankFor("/a/dec"); got != 1 {
			t.Errorf("table routes /a/dec to rank %d after the migration, want 1", got)
		}

		if err := cl.Recouple(p, "/a/dec"); err != nil {
			t.Fatalf("recouple: %v", err)
		}
		if _, ok := mon.Lookup("/a/dec"); ok {
			t.Error("Lookup still finds a registration after Unregister")
		}
		if st, ok := mon.Subtree("/a/dec"); !ok || st.State != monitor.SubtreeOwned || st.Epoch != epoch() || st.Moves != 2 {
			t.Errorf("record after Unregister = %+v, %v; want kept, owned, at the monitor's epoch %d, 2 moves",
				st, ok, epoch())
		}

		// A restart after Unregister hands the rank nothing for /a/dec:
		// the root keeps no policy, and another client's create goes
		// through the block the registration had.
		r1 := cl.Metadata().Rank(1)
		r1.Crash(p)
		if err := mon.Restart(p, 1); err != nil {
			t.Fatalf("restart rank 1: %v", err)
		}
		if in, err := r1.Store().Resolve("/a/dec"); err != nil || in.Policy != nil {
			t.Errorf("rank 1 after the restart: /a/dec = %+v, %v; want it there without a policy", in, err)
		}
		dec, err := other.Resolve(p, "/a/dec")
		if err == nil {
			_, err = other.Create(p, dec, "after-restart", 0644)
		}
		if err != nil {
			t.Errorf("another client's create in /a/dec after Unregister and a restart: %v", err)
		}
	})
}
