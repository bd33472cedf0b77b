package mds

import (
	"fmt"

	"cudele/internal/namespace"
	"cudele/internal/runtime"
)

// opInfo is one row of the op registry: everything the pipeline needs to
// know about a metadata operation lives here — its wire name, whether it
// mutates the namespace (journaling, interference checks), whether it is
// billed at lookup cost, and its handler.
type opInfo struct {
	name    string
	mutates bool
	lookup  bool // billed at MDSLookupTime instead of MDSOpTime
	// handler answers inside the request: serveRPC has emptied
	// req.reply, and the handler fills it and returns the op's error.
	handler func(s *Server, p runtime.Task, req *Request) error
}

// opTable is the single source of truth for op metadata. Every Op below
// opMax must have a name and a handler; TestOpTableComplete enforces it.
var opTable = [opMax]opInfo{
	OpLookup:  {name: "lookup", lookup: true, handler: handleLookup},
	OpCreate:  {name: "create", mutates: true, handler: handleCreate},
	OpMkdir:   {name: "mkdir", mutates: true, handler: handleCreate},
	OpGetAttr: {name: "getattr", lookup: true, handler: handleGetAttr},
	OpSetAttr: {name: "setattr", mutates: true, handler: handleSetAttr},
	OpReadDir: {name: "readdir", lookup: true, handler: handleReadDir},
	OpUnlink:  {name: "unlink", mutates: true, handler: handleUnlink},
	OpRename:  {name: "rename", mutates: true, handler: handleRename},
	OpResolve: {name: "resolve", lookup: true, handler: handleResolve},
}

func (o Op) String() string {
	if o < opMax && opTable[o].name != "" {
		return opTable[o].name
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Mutates reports whether the op changes the namespace (and therefore
// journals, and is subject to the interfere policy).
func (o Op) Mutates() bool { return o < opMax && opTable[o].mutates }

// handleLookup answers a miss with the bare sentinel, ErrNotExist or
// ErrNotDir, so a missed existence check builds no error: the client
// names the entry when it hands the miss to its caller.
func handleLookup(s *Server, p runtime.Task, req *Request) error {
	if in := s.store.Child(req.Parent, req.Name); in != nil {
		return req.reply.inode(in, nil)
	}
	dir, err := s.store.Get(req.Parent)
	switch {
	case err != nil:
		return err
	case !dir.IsDir():
		return namespace.ErrNotDir
	}
	return namespace.ErrNotExist
}

func handleResolve(s *Server, p runtime.Task, req *Request) error {
	return req.reply.inode(s.store.Resolve(req.Path))
}

func handleGetAttr(s *Server, p runtime.Task, req *Request) error {
	return req.reply.inode(s.store.Get(req.Ino))
}

func handleReadDir(s *Server, p runtime.Task, req *Request) error {
	names, err := s.store.ReadDir(req.Parent)
	if err != nil {
		return err
	}
	req.reply.Names = names
	return nil
}

// handleCreate serves both OpCreate and OpMkdir; the two differ only in
// the inode type inserted.
func handleCreate(s *Server, p runtime.Task, req *Request) error {
	attrs := namespace.CreateAttrs{
		Mode: req.Mode, UID: req.UID, GID: req.GID,
		Mtime: int64(p.Now()),
	}
	var in *namespace.Inode
	var err error
	if req.Op == OpMkdir {
		in, err = s.store.Mkdir(req.Parent, req.Name, attrs)
	} else {
		in, err = s.store.Create(req.Parent, req.Name, attrs)
	}
	if err != nil {
		return err
	}
	req.reply.inode(in, nil)
	s.updateCaps(p, req.Parent, req.Client, &req.reply)
	return nil
}

func handleSetAttr(s *Server, p runtime.Task, req *Request) error {
	if err := s.store.SetAttr(req.Ino, req.Mode, req.UID, req.GID, req.Size, req.Mtime); err != nil {
		return err
	}
	req.reply.Ino = req.Ino
	return nil
}

func handleUnlink(s *Server, p runtime.Task, req *Request) error {
	if err := s.store.Unlink(req.Parent, req.Name); err != nil {
		return err
	}
	s.updateCaps(p, req.Parent, req.Client, &req.reply)
	return nil
}

// handleRename names the inode whose dentry it moves in reply.Ino and
// IsDir, so the client's dentry cache and, for a directory, its known
// paths follow it.
func handleRename(s *Server, p runtime.Task, req *Request) error {
	in := s.store.Child(req.Parent, req.Name)
	// A directory another rank owns is only a bound here: renaming it,
	// over it or into it would leave the owner's subtree under a path
	// the table no longer names, or the entry where no one serves it.
	// POSIX refuses to rename a mount point the same way. Only a
	// directory can replace one, and a rename within one directory moves
	// into a directory this rank serves. Renaming a directory that holds
	// such a bound further down would move it just the same.
	if !s.c.table.Empty() && in != nil && (s.bound(in) || in.IsDir() && s.bound(s.store.Child(req.NewParent, req.NewName)) ||
		req.NewParent != req.Parent && !s.owns(req.NewParent) || in.IsDir() && s.holdsBound(in)) {
		return fmt.Errorf("rename %q: %w", req.Name, namespace.ErrBusy)
	}
	if err := s.store.Rename(req.Parent, req.Name, req.NewParent, req.NewName); err != nil {
		return err
	}
	req.reply.Ino, req.reply.IsDir = in.Ino, in.IsDir()
	s.updateCaps(p, req.Parent, req.Client, &req.reply)
	return nil
}
