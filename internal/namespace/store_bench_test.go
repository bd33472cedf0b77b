package namespace

import (
	"fmt"
	"math/rand"
	"testing"

	"cudele/internal/journal"
)

// The layer benchmarks of the inode index and the strong-eventual merger,
// shaped like the host benchmark's real_decoupled and real_rpc_read: inode
// numbers come out of one client grant, one iteration is one operation, and
// the store is rebuilt (untimed) every benchN of them so every run measures
// the same sizes. Run them at a fixed count, e.g.
//
//	go test ./internal/namespace -run '^$' -bench 'Store(Create|GetRandom|Resolve)|SEMergeApply' \
//	    -benchtime 1000000x -benchmem -cpu 2
const (
	benchN     = 100000 // inodes per store
	benchGrant = Ino(1) << 40
)

var benchSink *Inode

// benchTree returns a store of dirs directories under /tree and benchN
// files out of one grant spread round-robin over them, with every file's
// absolute path (depth 3).
func benchTree(b *testing.B, dirs int) (*Store, []string) {
	s := NewStore()
	tree, err := s.Mkdir(RootIno, "tree", CreateAttrs{Mode: 0755})
	if err != nil {
		b.Fatal(err)
	}
	parents := make([]*Inode, dirs)
	for d := range parents {
		if parents[d], err = s.Mkdir(tree.Ino, fmt.Sprintf("dir%03d", d), CreateAttrs{Mode: 0755}); err != nil {
			b.Fatal(err)
		}
	}
	paths := make([]string, benchN)
	for i := range paths {
		dir := parents[i%dirs]
		name := fmt.Sprintf("file%06d", i)
		if _, err := s.Create(dir.Ino, name, CreateAttrs{Ino: benchGrant + Ino(i), Mode: 0644}); err != nil {
			b.Fatal(err)
		}
		paths[i] = "/tree/" + dir.Name + "/" + name
	}
	return s, paths
}

// BenchmarkStoreCreate is one create with a client-assigned inode, into a
// store that grows to benchN files: spread over 750 directories, the
// decoupled workload's shape, and all into one.
func BenchmarkStoreCreate(b *testing.B) {
	names := make([]string, benchN)
	for i := range names {
		names[i] = fmt.Sprintf("file%06d", i)
	}
	for _, dirs := range []int{750, 1} {
		b.Run(fmt.Sprintf("dirs=%d", dirs), func(b *testing.B) {
			var s *Store
			parents := make([]Ino, dirs)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % benchN
				if k == 0 {
					b.StopTimer()
					s = NewStore()
					for d := range parents {
						in, err := s.Mkdir(RootIno, fmt.Sprintf("dir%03d", d), CreateAttrs{Mode: 0755})
						if err != nil {
							b.Fatal(err)
						}
						parents[d] = in.Ino
					}
					b.StartTimer()
				}
				in, err := s.Create(parents[k%dirs], names[k], CreateAttrs{Ino: benchGrant + Ino(k), Mode: 0644})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = in
			}
		})
	}
}

// BenchmarkStoreGetRandom is one Get of a uniformly random inode out of
// benchN: the index's least favourable access pattern, no two neighbours
// on one page.
func BenchmarkStoreGetRandom(b *testing.B) {
	s, _ := benchTree(b, 100)
	rng := rand.New(rand.NewSource(1))
	inos := make([]Ino, 1<<16)
	for i := range inos {
		inos[i] = benchGrant + Ino(rng.Intn(benchN))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := s.Get(inos[i%len(inos)])
		if err != nil {
			b.Fatal(err)
		}
		benchSink = in
	}
}

// BenchmarkStoreResolve is one Resolve of a uniformly random file at depth
// 3 in a 100 x 1 000-file tree.
func BenchmarkStoreResolve(b *testing.B) {
	s, paths := benchTree(b, 100)
	rng := rand.New(rand.NewSource(1))
	picks := make([]string, 1<<16)
	for i := range picks {
		picks[i] = paths[rng.Intn(benchN)]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := s.Resolve(picks[i%len(picks)])
		if err != nil {
			b.Fatal(err)
		}
		benchSink = in
	}
}

// BenchmarkSEMergeApply is one event of a client's journal through the
// strong-eventual merger: 15 000 events as real_decoupled issues them —
// 5 % mkdirs under the subtree root (750 directories), 5 % unlinks of a
// live file, the rest creates into a uniformly chosen directory — into a
// fresh store each time round.
func BenchmarkSEMergeApply(b *testing.B) {
	const nEvents = 15000
	fresh := func() (*Store, Ino) {
		s := NewStore()
		root, err := s.MkdirAll("/job/client0", CreateAttrs{Mode: 0755})
		if err != nil {
			b.Fatal(err)
		}
		return s, root.Ino
	}
	_, root := fresh()
	rng := rand.New(rand.NewSource(1))
	dirs := []uint64{uint64(root)}
	type file struct {
		parent uint64
		name   string
	}
	var files []file
	evs := make([]*journal.Event, nEvents)
	for i := range evs {
		ev := &journal.Event{
			Seq: uint64(i), Client: "client.0", Mtime: int64(i),
			Parent: uint64(root), Name: fmt.Sprintf("n%05d", i),
		}
		switch {
		case i%20 == 0:
			ev.Type, ev.Ino, ev.Mode = journal.EvMkdir, uint64(benchGrant)+uint64(i), 0755
			dirs = append(dirs, ev.Ino)
		case i%20 == 10:
			at := rng.Intn(len(files))
			ev.Type, ev.Parent, ev.Name = journal.EvUnlink, files[at].parent, files[at].name
			files[at] = files[len(files)-1]
			files = files[:len(files)-1]
		default:
			ev.Type, ev.Ino, ev.Mode = journal.EvCreate, uint64(benchGrant)+uint64(i), 0644
			ev.Parent = dirs[rng.Intn(len(dirs))]
			files = append(files, file{ev.Parent, ev.Name})
		}
		evs[i] = ev
	}
	var m *SEMerger
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i % nEvents
		if k == 0 {
			b.StopTimer()
			s, _ := fresh()
			m = NewSEMerger(s)
			b.StartTimer()
		}
		if err := m.ApplyEvent(evs[k]); err != nil {
			b.Fatal(err)
		}
	}
}
