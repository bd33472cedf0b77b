package main

import (
	"math/rand"
	"strconv"
)

// Everything a workload feeds the program is generated here from the
// repetition's seed before any clock starts: names, op sequences and the
// interferer's arrival time. The measured loops only index these slices.

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// nameGen makes unique, seed-dependent names: a prefix, a counter that
// guarantees uniqueness and three random base-36 digits so different
// seeds hash differently.
type nameGen struct {
	rng *rand.Rand
	n   int
	buf []byte
}

func (g *nameGen) next(prefix string) string {
	g.buf = append(g.buf[:0], prefix...)
	g.buf = strconv.AppendInt(g.buf, int64(g.n), 36)
	g.buf = append(g.buf, '-')
	g.buf = strconv.AppendInt(g.buf, int64(1296+g.rng.Intn(45360)), 36) // always 3 digits
	g.n++
	return string(g.buf)
}

func (g *nameGen) list(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.next(prefix)
	}
	return out
}

// rpcOp is one call of real_rpc_write. slot indexes the client's table
// of files it has created, whose inode numbers are only known at run
// time; name is the file's name when the op is issued.
type rpcOp struct {
	kind    opKind
	slot    int32
	name    string
	newName string // opRename
}

// rpcWriteInput is one client's op sequence and the state it must leave.
type rpcWriteInput struct {
	ops   []rpcOp
	slots int
	// live is the name of every file that must exist in the client's
	// directory afterwards.
	live []string
}

// genRPCWrite draws n calls: 70 % Create, 15 % Unlink, 10 % Rename, 5 %
// SetAttr, each of the last three on a uniformly chosen live file (a
// Create is drawn instead while the directory is empty).
func genRPCWrite(rng *rand.Rand, n int) rpcWriteInput {
	g := &nameGen{rng: rng}
	in := rpcWriteInput{ops: make([]rpcOp, 0, n)}
	var liveSlots []int32 // slots of live files
	var slotName []string // current name per slot
	for len(in.ops) < n {
		r := rng.Intn(100)
		if len(liveSlots) == 0 {
			r = 0
		}
		pick := func() (int, int32) {
			i := rng.Intn(len(liveSlots))
			return i, liveSlots[i]
		}
		switch {
		case r < 70:
			s := int32(len(slotName))
			slotName = append(slotName, g.next("f"))
			liveSlots = append(liveSlots, s)
			in.ops = append(in.ops, rpcOp{kind: opCreate, slot: s, name: slotName[s]})
		case r < 85:
			i, s := pick()
			liveSlots[i] = liveSlots[len(liveSlots)-1]
			liveSlots = liveSlots[:len(liveSlots)-1]
			in.ops = append(in.ops, rpcOp{kind: opUnlink, slot: s, name: slotName[s]})
		case r < 95:
			_, s := pick()
			nn := g.next("r")
			in.ops = append(in.ops, rpcOp{kind: opRename, slot: s, name: slotName[s], newName: nn})
			slotName[s] = nn
		default:
			_, s := pick()
			in.ops = append(in.ops, rpcOp{kind: opSetAttr, slot: s, name: slotName[s]})
		}
	}
	in.slots = len(slotName)
	in.live = make([]string, len(liveSlots))
	for i, s := range liveSlots {
		in.live[i] = slotName[s]
	}
	return in
}

// readOp is one call of real_rpc_read: dir and file index the prefilled
// tree.
type readOp struct {
	kind      opKind
	dir, file int32
}

// genRPCRead draws n calls over dirs x files uniformly: 60 % Lookup,
// 28 % Stat, 10 % Resolve, 2 % ReadDir. Uniform, because the MDS keeps
// the whole namespace in memory with no evicting cache: skew would change
// nothing it does.
func genRPCRead(rng *rand.Rand, n, dirs, files int) []readOp {
	ops := make([]readOp, n)
	for i := range ops {
		op := readOp{dir: int32(rng.Intn(dirs)), file: int32(rng.Intn(files))}
		switch r := rng.Intn(100); {
		case r < 60:
			op.kind = opLookup
		case r < 88:
			op.kind = opStat
		case r < 98:
			op.kind = opResolve
		default:
			op.kind = opReadDir
		}
		ops[i] = op
	}
	return ops
}

// localOp is one decoupled call. dir 0 is the subtree root; dir k > 0 is
// the k-th directory the sequence made with LocalMkdir.
type localOp struct {
	kind opKind
	dir  int32
	name string
}

// localInput is one decoupled client's op sequence and the state a merge
// must produce: per directory slot, the names that must exist in it.
type localInput struct {
	ops      []localOp
	dirNames []string   // name of directory slot k (slot 0, the root, is "")
	live     [][]string // live[k]: files that must exist in directory slot k
	creates  int        // LocalCreate + LocalMkdir calls: inodes drawn from the grant
}

// genLocal draws n decoupled calls with mkdirPct % LocalMkdir (always
// under the subtree root), unlinkPct % LocalUnlink of a live file and the
// rest LocalCreate into a uniformly chosen directory.
func genLocal(rng *rand.Rand, n, mkdirPct, unlinkPct int) localInput {
	g := &nameGen{rng: rng}
	in := localInput{ops: make([]localOp, 0, n), dirNames: []string{""}}
	type fileRef struct {
		dir  int32
		name string
	}
	var files []fileRef
	for len(in.ops) < n {
		r := rng.Intn(100)
		if r < mkdirPct+unlinkPct && r >= mkdirPct && len(files) == 0 {
			r = 100
		}
		switch {
		case r < mkdirPct:
			name := g.next("d")
			in.dirNames = append(in.dirNames, name)
			in.ops = append(in.ops, localOp{kind: opLocalMkdir, dir: 0, name: name})
			in.creates++
		case r < mkdirPct+unlinkPct:
			i := rng.Intn(len(files))
			f := files[i]
			files[i] = files[len(files)-1]
			files = files[:len(files)-1]
			in.ops = append(in.ops, localOp{kind: opLocalUnlink, dir: f.dir, name: f.name})
		default:
			f := fileRef{dir: int32(rng.Intn(len(in.dirNames))), name: g.next("f")}
			files = append(files, f)
			in.ops = append(in.ops, localOp{kind: opLocalCreate, dir: f.dir, name: f.name})
			in.creates++
		}
	}
	in.live = make([][]string, len(in.dirNames))
	for _, f := range files {
		in.live[f.dir] = append(in.live[f.dir], f.name)
	}
	return in
}
