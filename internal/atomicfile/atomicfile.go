// Package atomicfile replaces files crash-safely: a reader or a crash sees
// the old contents or the complete new ones, never a torn hybrid.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write replaces path's contents with data. The bytes go to a dot-prefixed
// temp file in path's directory (so directory scanners that skip dotfiles,
// like the fleet watcher, never read it half-written), are fsynced, take
// the existing file's permission bits (0644 for a new file), and are
// renamed over path.
func Write(path string, data []byte) error {
	perm := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		perm = fi.Mode().Perm()
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(perm)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
