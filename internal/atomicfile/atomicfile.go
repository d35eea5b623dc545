// Package atomicfile replaces files so that a reader, or a restart
// after a crash, sees either the old content or the complete new
// content — never a torn write.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with the bytes write produces. They go to a
// temporary file in path's directory, which is fsynced, renamed over
// path, and made durable by fsyncing the directory. If write or any
// step before the rename fails, the temporary file is removed and path
// keeps its old content. write's error is returned unchanged; the
// file-system errors name their operation and path.
func Write(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if err := fill(tmp, write); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// fill writes, fsyncs and closes the temporary file, closing it on
// every path.
func fill(tmp *os.File, write func(w io.Writer) error) error {
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	return tmp.Close()
}

// syncDir fsyncs a directory, so a rename inside it survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
