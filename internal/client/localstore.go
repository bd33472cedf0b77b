package client

import (
	"os"
	"path/filepath"

	"cudele/internal/rados"
	"cudele/internal/runtime"
)

// This file is the real backend's Local Persist target: when a local
// directory is configured (SetLocalDir), the client journal is written
// to a real file with the write→fsync→rename protocol of the object
// store's FileStore, instead of charging the simulated disk pipe.
// The in-memory copy (localFiles) stays authoritative for lookups;
// the file is what survives a process kill, which is exactly the
// paper's definition of local durability.

// SetLocalDir makes Local Persist durable: journal images are fsynced
// into dir. Pass "" to return to the simulated disk model.
func (c *Client) SetLocalDir(dir string) { c.localDir = dir }

// chargeLocalDisk charges the simulated local-disk cost, skipped when a
// real local directory is configured (the fsync is the cost there).
func (c *Client) chargeLocalDisk(p runtime.Task, n int64) {
	if c.localDir != "" {
		return
	}
	c.localDisk.Transfer(p, n)
}

// persistLocal durably writes the journal image to the local directory
// through the object store's one durable-write protocol
// (rados.FileStore.WriteFile), outside the client's lock domain.
func (c *Client) persistLocal(p runtime.Task, data []byte) error {
	if c.localDir == "" {
		return nil
	}
	var err error
	p.Blocking(func() {
		var fs *rados.FileStore
		if fs, err = rados.OpenFileStore(c.localDir); err == nil {
			err = fs.WriteFile("journal", data)
		}
	})
	return err
}

// loadLocal reads a persisted journal image back from the local
// directory; ok is false when none was ever committed.
func (c *Client) loadLocal(p runtime.Task) (data []byte, ok bool, err error) {
	if c.localDir == "" {
		return nil, false, nil
	}
	p.Blocking(func() {
		data, err = os.ReadFile(filepath.Join(c.localDir, "journal"))
	})
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	return data, err == nil, err
}
