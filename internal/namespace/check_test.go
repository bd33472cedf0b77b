package namespace

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cudele/internal/journal"
)

func TestCheckHealthyStore(t *testing.T) {
	s := buildSample(t)
	if problems := s.Check(); len(problems) != 0 {
		t.Fatalf("healthy store reported %v", problems)
	}
	s.MustHealthy() // must not panic
}

func countKind(problems []Problem, kind string) int {
	n := 0
	for _, p := range problems {
		if p.Kind == kind {
			n++
		}
	}
	return n
}

func TestCheckOrphan(t *testing.T) {
	s := buildSample(t)
	// Inject an inode with no dentry.
	s.inodes.put(&Inode{Ino: 999, Parent: RootIno, Name: "ghost", Type: TypeFile})
	problems := s.Check()
	if countKind(problems, "orphan-inode") != 1 {
		t.Fatalf("problems = %v", problems)
	}
	actions := s.Repair()
	if len(actions) != 1 || !strings.Contains(actions[0], "lost+found") {
		t.Fatalf("actions = %v", actions)
	}
	if _, err := s.Resolve("/lost+found/ino-999"); err != nil {
		t.Fatalf("orphan not rescued: %v", err)
	}
	s.MustHealthy()
}

func TestCheckDanglingDentry(t *testing.T) {
	s := buildSample(t)
	root := s.Root()
	root.frag.link("phantom", 777) // no such inode
	problems := s.Check()
	if countKind(problems, "dangling-dentry") != 1 {
		t.Fatalf("problems = %v", problems)
	}
	s.Repair()
	s.MustHealthy()
	if _, ok := root.frag.lookup("phantom"); ok {
		t.Fatal("dangling dentry survived repair")
	}
}

func TestCheckBadParentAndName(t *testing.T) {
	s := buildSample(t)
	in, _ := s.Resolve("/proj/README")
	in.Parent = RootIno   // lies about its parent
	in.Name = "WRONGNAME" // lies about its name
	problems := s.Check()
	if countKind(problems, "bad-parent") != 1 || countKind(problems, "bad-name") != 1 {
		t.Fatalf("problems = %v", problems)
	}
	s.Repair()
	s.MustHealthy()
	proj, _ := s.Resolve("/proj")
	if in.Parent != proj.Ino || in.Name != "README" {
		t.Fatalf("repair wrote %d/%q", in.Parent, in.Name)
	}
}

func TestCheckFileWithChildren(t *testing.T) {
	s := buildSample(t)
	in, _ := s.Resolve("/proj/README")
	in.dentries().link("impossible", 5)
	problems := s.Check()
	if countKind(problems, "file-children") != 1 {
		t.Fatalf("problems = %v", problems)
	}
	s.Repair()
	s.MustHealthy()
}

func TestCheckDupIno(t *testing.T) {
	s := buildSample(t)
	// Two dentries referencing the same inode.
	f, _ := s.Resolve("/proj/README")
	root := s.Root()
	root.frag.link("hardlinkish", f.Ino)
	problems := s.Check()
	if countKind(problems, "dup-ino") != 1 {
		t.Fatalf("problems = %v", problems)
	}
}

func TestCheckReservedOverlap(t *testing.T) {
	s := NewStore()
	s.ReserveRange(100, 50)
	s.ReserveRange(120, 50) // overlaps
	s.ReserveRange(500, 10) // fine
	s.ReserveRange(500, 10) // the same grant re-installed: recorded once
	problems := s.Check()
	if countKind(problems, "reserved-overlap") != 1 || s.ReservedRanges() != 3 {
		t.Fatalf("%d ranges, problems = %v", s.ReservedRanges(), problems)
	}
}

func TestCheckNoRoot(t *testing.T) {
	s := NewStore()
	s.inodes.del(RootIno)
	problems := s.Check()
	if len(problems) != 1 || problems[0].Kind != "no-root" {
		t.Fatalf("problems = %v", problems)
	}
}

func TestMustHealthyPanics(t *testing.T) {
	s := buildSample(t)
	s.inodes.put(&Inode{Ino: 999, Name: "ghost", Type: TypeFile})
	defer func() {
		if recover() == nil {
			t.Fatal("MustHealthy did not panic on unhealthy store")
		}
	}()
	s.MustHealthy()
}

func TestProblemString(t *testing.T) {
	p := Problem{Kind: "orphan-inode", Ino: 7, Path: "/x", Info: "hi"}
	if !strings.Contains(p.String(), "orphan-inode") {
		t.Fatalf("string = %q", p.String())
	}
}

// Property: any namespace produced by replaying a random valid journal is
// healthy.
func TestReplayedStoresHealthyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		j := journal.New(4096)
		dirs := []Ino{RootIno}
		nextIno := uint64(5000)
		for op := 0; op < 150; op++ {
			parent := dirs[rng.Intn(len(dirs))]
			nextIno++
			switch rng.Intn(3) {
			case 0:
				j.Append(&journal.Event{Type: journal.EvMkdir,
					Parent: uint64(parent), Name: nameFor(op), Ino: nextIno, Mode: 0755})
				dirs = append(dirs, Ino(nextIno))
			default:
				j.Append(&journal.Event{Type: journal.EvCreate,
					Parent: uint64(parent), Name: nameFor(op), Ino: nextIno, Mode: 0644})
			}
		}
		if _, err := journal.Replay(j.Events(), s); err != nil {
			return false
		}
		return len(s.Check()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func nameFor(op int) string {
	return fmt.Sprintf("n%03d", op)
}
