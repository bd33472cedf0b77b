package client

import (
	"os"
	"path/filepath"

	"cudele/internal/runtime"
)

// This file is the real backend's Local Persist target: when a local
// directory is configured (SetLocalDir), the client journal is written
// to a real file with the same write→fsync→rename protocol the object
// store's FileStore uses, instead of charging the simulated disk pipe.
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
// (write tmp → fsync → rename → fsync dir), outside the client's lock domain.
func (c *Client) persistLocal(p runtime.Task, data []byte) error {
	if c.localDir == "" {
		return nil
	}
	var err error
	p.Blocking(func() { err = writeDurable(c.localDir, "journal", data) })
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

// writeDurable commits data to dir/name atomically and durably.
func writeDurable(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	final := filepath.Join(dir, name)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
