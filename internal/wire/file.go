package wire

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with data so that a crash at any moment
// leaves either the old file or the new one, never an empty or torn one:
// the bytes go to path+".tmp" and are fsynced before the rename makes
// them visible, and the directory is synced after so the rename itself
// survives. On failure path is untouched and the temp file is removed.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	SyncDir(filepath.Dir(path))
	return nil
}

// SyncDir fsyncs a directory so renames within it are durable;
// best-effort (some filesystems refuse directory fsync).
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
