package mds

import (
	"testing"

	"cudele/internal/journal"
	"cudele/internal/namespace"
	"cudele/internal/runtime"
)

// TestConvergeAfterRPCRemakesParent: the strong-eventual merger keeps the
// inode each summarized directory is rendered at from one merge to the
// next, and RPC handlers write the same store in between. Here the
// directory a merge rendered into is removed and an RPC makes a new one
// at the same path; the next merge's files must land in the new
// directory, not in the inode the merger remembered.
func TestConvergeAfterRPCRemakesParent(t *testing.T) {
	eng, s := newTestServer()
	s.OpenSession("c0")
	run(t, eng, func(p runtime.Task) {
		rpc := func(req *Request) *Reply {
			req.Client = "c0"
			r := s.Submit(p, req)
			if r.Err != nil {
				t.Fatalf("rpc %v %q: %v", req.Op, req.Name, r.Err)
			}
			return r
		}
		old := rpc(&Request{Op: OpMkdir, Parent: namespace.RootIno, Name: "job", Mode: 0755}).Ino
		create := func(seq uint64, name string) *journal.Event {
			return &journal.Event{Type: journal.EvCreate, Client: "c1", Seq: seq, Parent: uint64(old),
				Name: name, Ino: 1<<40 + seq, Mode: 0644, Mtime: int64(seq) + 1}
		}
		if _, err := s.ConvergeApply(p, []*journal.Event{create(0, "a")}, 0); err != nil {
			t.Fatalf("first merge: %v", err)
		}
		rpc(&Request{Op: OpUnlink, Parent: old, Name: "a"})
		if err := s.Store().Rmdir(namespace.RootIno, "job"); err != nil {
			t.Fatalf("rmdir /job: %v", err)
		}
		renewed := rpc(&Request{Op: OpMkdir, Parent: namespace.RootIno, Name: "job", Mode: 0755}).Ino
		if _, err := s.ConvergeApply(p, []*journal.Event{create(1, "b")}, 0); err != nil {
			t.Fatalf("merge after the directory was remade: %v", err)
		}
		b, err := s.Store().Resolve("/job/b")
		if err != nil || b.Parent != renewed || renewed == old {
			t.Fatalf("/job/b = %+v, %v; want it in the remade /job (inode %d, was %d)", b, err, renewed, old)
		}
	})
}
