package mds

import (
	"cudele/internal/namespace"
	"cudele/internal/runtime"
	"cudele/internal/trace"
)

// Capability state per directory inode. CephFS keeps clients and MDS
// agreed on each inode's caps via the inode cache; here we track the piece
// that drives the paper's interference results (§II-B, Fig 3b/3c): the
// read-caching capability on a directory. While a single client writes a
// directory, it holds the cap and resolves lookups locally, so a create is
// one RPC. When a second client touches the directory, the MDS revokes the
// cap (doing extra work) and the directory becomes shared: every client
// must now send a lookup RPC before each create.
type dirCaps struct {
	holder string // client holding the read-caching cap, "" if none
	shared bool   // true once two clients have touched the directory
}

func (s *Server) dirCapsFor(ino namespace.Ino) *dirCaps {
	dc := s.caps[ino]
	if dc == nil {
		dc = &dirCaps{}
		s.caps[ino] = dc
	}
	return dc
}

// updateCaps runs after a successful mutation in directory dir by client,
// adjusting capability state and annotating the reply. Called with the
// CPU held.
func (s *Server) updateCaps(p runtime.Task, dir namespace.Ino, client string, reply *Reply) {
	if client == "" {
		return
	}
	dc := s.dirCapsFor(dir)
	switch {
	case dc.shared:
		reply.CapLost = true
	case dc.holder == "":
		dc.holder = client
		reply.CapGranted = true
	case dc.holder == client:
		reply.CapGranted = true
	default:
		// False sharing: revoke the holder's cap, mark the directory
		// shared. Revocation is real MDS work (paper Fig 3c).
		rec := p.Runtime().Tracer()
		var span trace.SpanID
		if rec != nil {
			span = rec.Begin(int64(p.Now()), s.ep.Name(), "caps", "cap.revoke")
		}
		p.Sleep(s.cfg.MDSCapRevokeTime)
		if rec != nil {
			rec.End(span, int64(p.Now()))
		}
		s.metrics.CapRevokes++
		dc.holder = ""
		dc.shared = true
		reply.CapLost = true
	}
}

// DirShared reports whether the directory has transitioned out of
// single-writer read caching.
func (s *Server) DirShared(ino namespace.Ino) bool {
	dc := s.caps[ino]
	return dc != nil && dc.shared
}

// CapHolder returns the client holding the directory's read-caching cap.
func (s *Server) CapHolder(ino namespace.Ino) (string, bool) {
	dc := s.caps[ino]
	if dc == nil || dc.holder == "" {
		return "", false
	}
	return dc.holder, true
}
