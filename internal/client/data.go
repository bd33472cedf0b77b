package client

import (
	"fmt"

	"cudele/internal/journal"
	"cudele/internal/namespace"
	"cudele/internal/rados"
	"cudele/internal/runtime"
)

// DataPool is the RADOS pool holding file contents, striped into
// fixed-size objects like CephFS's data pool.
const DataPool = "cephfs_data"

// dataName is the logical striper name of a file's contents.
func dataName(ino namespace.Ino) string {
	return fmt.Sprintf("%x", uint64(ino))
}

// WriteFile replaces the contents of file ino with data: the bytes are
// striped into the data pool (leveraging the cluster's collective
// bandwidth) and the size/mtime are updated through the metadata path.
// The metadata update uses RPCs, so this is the POSIX-side data path;
// decoupled jobs use LocalWriteFile.
func (c *Client) WriteFile(p runtime.Task, ino namespace.Ino, data []byte) error {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	st, err := c.Stat(p, ino)
	if err != nil {
		return err
	}
	if st.IsDir {
		return fmt.Errorf("write file %d: %w", ino, namespace.ErrIsDir)
	}
	striper := rados.NewStriper(c.obj)
	if err := striper.Write(p, DataPool, dataName(ino), data); err != nil {
		return fmt.Errorf("write file %d: %w", ino, err)
	}
	return c.SetAttr(p, ino, st.Mode, st.UID, st.GID, uint64(len(data)), int64(p.Now()))
}

// ReadFile returns the contents of file ino from the data pool. A file
// that was created but never written reads back empty.
func (c *Client) ReadFile(p runtime.Task, ino namespace.Ino) ([]byte, error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	st, err := c.Stat(p, ino)
	if err != nil {
		return nil, err
	}
	if st.IsDir {
		return nil, fmt.Errorf("read file %d: %w", ino, namespace.ErrIsDir)
	}
	if st.Size == 0 {
		return nil, nil
	}
	striper := rados.NewStriper(c.obj)
	data, err := striper.Read(p, DataPool, dataName(ino))
	if err != nil {
		return nil, err
	}
	if uint64(len(data)) > st.Size {
		data = data[:st.Size]
	}
	return data, nil
}

// LocalWriteFile writes file data from a decoupled job: the bytes still
// go straight to the object store (the data path is never decoupled —
// only metadata is), while the size update is appended to the client
// journal to merge later, exactly how BatchFS/DeltaFS-style systems
// treat data vs metadata.
func (c *Client) LocalWriteFile(p runtime.Task, ino namespace.Ino, data []byte) error {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	if c.dec == nil {
		return ErrNotDecoupled
	}
	in, err := c.dec.store.Get(namespace.Ino(ino))
	if err != nil {
		return err
	}
	if in.IsDir() {
		return fmt.Errorf("local write file %d: %w", ino, namespace.ErrIsDir)
	}
	striper := rados.NewStriper(c.obj)
	if err := striper.Write(p, DataPool, dataName(ino), data); err != nil {
		return fmt.Errorf("local write file %d: %w", ino, err)
	}
	// Track the size locally and journal the attribute update.
	return c.applyAndAppend(p, &journal.Event{
		Type: journal.EvSetAttr, Ino: uint64(ino),
		Mode: in.Mode, UID: in.UID, GID: in.GID,
		Size: uint64(len(data)), Mtime: int64(p.Now()),
	})
}

// RemoveFileData deletes a file's contents from the data pool; unlink
// paths call it to avoid leaking objects.
func (c *Client) RemoveFileData(p runtime.Task, ino namespace.Ino) error {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	striper := rados.NewStriper(c.obj)
	return striper.Remove(p, DataPool, dataName(ino))
}
