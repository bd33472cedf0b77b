// Package journal implements the CephFS-style metadata journal that Cudele
// re-purposes for namespace decoupling (paper §IV-B).
//
// The journal is a log of typed metadata update events with a versioned,
// CRC-protected binary encoding. The same format is written by the MDS
// (Stream), by decoupled clients (Append Client Journal), to local disk
// (Local Persist), and into the object store (Global Persist); the MDS's
// recovery code replays it onto the metadata store (Volatile / Nonvolatile
// Apply). Because every producer writes the same format, the metadata
// server can merge any client's decoupled updates without protocol changes
// — the property the paper's "dirty-slate" implementation leans on.
package journal

import (
	"errors"
	"fmt"
)

// EventType discriminates journal event payloads.
type EventType uint8

// Event types. The zero value is invalid so that decoding catches
// uninitialized records.
const (
	EvInvalid    EventType = iota
	EvCreate               // create a regular file
	EvMkdir                // create a directory
	EvUnlink               // remove a file
	EvRmdir                // remove an empty directory
	EvRename               // move a dentry
	EvSetAttr              // update inode attributes
	EvAllocRange           // record an inode-number range grant
	EvExport               // subtree export-commit record (migration)
	evMax
)

var eventTypeNames = [...]string{
	EvInvalid:    "invalid",
	EvCreate:     "create",
	EvMkdir:      "mkdir",
	EvUnlink:     "unlink",
	EvRmdir:      "rmdir",
	EvRename:     "rename",
	EvSetAttr:    "setattr",
	EvAllocRange: "alloc",
	EvExport:     "export",
}

func (t EventType) String() string {
	if int(t) < len(eventTypeNames) && t != EvInvalid {
		return eventTypeNames[t]
	}
	return fmt.Sprintf("EventType(%d)", uint8(t))
}

// Valid reports whether t is a known event type.
func (t EventType) Valid() bool { return t > EvInvalid && t < evMax }

// Event is one journal record. Fields are interpreted per type:
//
//	Create/Mkdir: Parent+Name name the new dentry, Ino is the new inode
//	  (0 means "assign at apply time"), Mode/UID/GID are attributes.
//	Unlink/Rmdir: Parent+Name name the victim dentry.
//	Rename: Parent+Name is the source, NewParent+NewName the destination.
//	SetAttr: Ino is the target; Mode/UID/GID/Size/Mtime are new values.
//	AllocRange: Ino..Ino+Size is the granted inode range for Client.
//	Export: Name is the migrated subtree path, Ino its root inode,
//	  Parent the source rank, NewParent the destination rank, Seq the
//	  monitor-assigned migration sequence. Written as the export-commit
//	  record; a namespace store treats it as a no-op on replay.
//
// Type sits after GID, in the padding the three 32-bit fields leave, so
// the struct is 109 bytes of fields in the 112-byte size class rather
// than 128 (TestEventSize).
type Event struct {
	Seq       uint64 // per-producer sequence number
	Client    string // issuing client (session) id
	Ino       uint64
	Parent    uint64
	Name      string
	NewParent uint64
	NewName   string
	Mode      uint32
	UID       uint32
	GID       uint32
	Type      EventType
	Size      uint64
	Mtime     int64 // virtual nanoseconds
}

// Errors returned by event validation and decoding.
var (
	ErrBadEvent  = errors.New("journal: malformed event")
	ErrBadMagic  = errors.New("journal: bad magic")
	ErrBadVsn    = errors.New("journal: unsupported version")
	ErrChecksum  = errors.New("journal: checksum mismatch")
	ErrTruncated = errors.New("journal: truncated record")
)

// Validate reports whether the event is well-formed for its type.
func (e *Event) Validate() error {
	if !e.Type.Valid() {
		return fmt.Errorf("%w: type %d", ErrBadEvent, e.Type)
	}
	switch e.Type {
	case EvCreate, EvMkdir, EvUnlink, EvRmdir:
		if e.Name == "" {
			return fmt.Errorf("%w: %s with empty name", ErrBadEvent, e.Type)
		}
	case EvRename:
		if e.Name == "" || e.NewName == "" {
			return fmt.Errorf("%w: rename with empty name", ErrBadEvent)
		}
	case EvSetAttr:
		if e.Ino == 0 {
			return fmt.Errorf("%w: setattr on inode 0", ErrBadEvent)
		}
	case EvAllocRange:
		if e.Size == 0 {
			return fmt.Errorf("%w: empty alloc range", ErrBadEvent)
		}
	case EvExport:
		if e.Name == "" {
			return fmt.Errorf("%w: export with empty path", ErrBadEvent)
		}
	}
	return nil
}

// String renders a compact human-readable form, used by journal-tool.
func (e *Event) String() string {
	switch e.Type {
	case EvCreate, EvMkdir:
		return fmt.Sprintf("%-7s seq=%d client=%s parent=%d name=%q ino=%d mode=%o",
			e.Type, e.Seq, e.Client, e.Parent, e.Name, e.Ino, e.Mode)
	case EvUnlink, EvRmdir:
		return fmt.Sprintf("%-7s seq=%d client=%s parent=%d name=%q",
			e.Type, e.Seq, e.Client, e.Parent, e.Name)
	case EvRename:
		return fmt.Sprintf("%-7s seq=%d client=%s %d/%q -> %d/%q",
			e.Type, e.Seq, e.Client, e.Parent, e.Name, e.NewParent, e.NewName)
	case EvSetAttr:
		return fmt.Sprintf("%-7s seq=%d client=%s ino=%d mode=%o size=%d",
			e.Type, e.Seq, e.Client, e.Ino, e.Mode, e.Size)
	case EvAllocRange:
		return fmt.Sprintf("%-7s seq=%d client=%s range=[%d,%d)",
			e.Type, e.Seq, e.Client, e.Ino, e.Ino+e.Size)
	case EvExport:
		return fmt.Sprintf("%-7s seq=%d subtree=%q root=%d rank %d -> %d",
			e.Type, e.Seq, e.Name, e.Ino, e.Parent, e.NewParent)
	}
	return fmt.Sprintf("%-7s seq=%d", e.Type, e.Seq)
}

// Target consumes journal events in order; the namespace metadata store
// implements it so that replay ("apply") is the single code path shared by
// Stream recovery, Volatile Apply, and Nonvolatile Apply.
type Target interface {
	ApplyEvent(ev *Event) error
}
