package quality

import (
	"fmt"
	"os"
	"sync"
)

// RotatingFile is an append-only file writer with size-based rotation,
// the durability backstop for the NDJSON query log: when a write would
// push the file past maxBytes, the generation chain shifts (path.1 →
// path.2 … up to path.maxGens, oldest deleted), the current file is
// renamed to path.1 and a fresh file is started at path.
// Rotation bounds disk use at roughly (maxGens+1)×maxBytes per log
// without an external logrotate.
//
// Writes are mutex-serialized and never split across a rotation, so
// each generation holds whole NDJSON lines as long as callers write one
// line per call (QueryLog does).
type RotatingFile struct {
	mu       sync.Mutex
	path     string
	maxBytes int64
	maxGens  int
	f        *os.File
	size     int64
}

// OpenRotatingFile opens (creating if needed) path for appending with
// rotation at maxBytes, keeping one rotated generation (path.1) — the
// historical default. maxBytes <= 0 disables rotation — the file just
// grows, matching a plain append open.
func OpenRotatingFile(path string, maxBytes int64) (*RotatingFile, error) {
	return OpenRotatingFileGens(path, maxBytes, 1)
}

// OpenRotatingFileGens is OpenRotatingFile keeping up to maxGens rotated
// generations (path.1 newest … path.maxGens oldest). maxGens < 1 is
// clamped to 1.
func OpenRotatingFileGens(path string, maxBytes int64, maxGens int) (*RotatingFile, error) {
	if maxGens < 1 {
		maxGens = 1
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &RotatingFile{path: path, maxBytes: maxBytes, maxGens: maxGens,
		f: f, size: st.Size()}, nil
}

// Write appends p, rotating first if the file would exceed maxBytes.
// A write larger than maxBytes into an empty file is written anyway
// (rotating would just produce an empty generation). On rotation
// failure the writer recovers by reopening the original path so
// subsequent writes still land somewhere; the failed write's error is
// returned for the caller's drop accounting.
func (r *RotatingFile) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.maxBytes > 0 && r.size > 0 && r.size+int64(len(p)) > r.maxBytes {
		if err := r.rotateLocked(); err != nil {
			return 0, err
		}
	}
	n, err := r.f.Write(p)
	r.size += int64(n)
	return n, err
}

// gen names the i-th rotated generation of the log.
func (r *RotatingFile) gen(i int) string {
	return fmt.Sprintf("%s.%d", r.path, i)
}

// rotateLocked closes the live file, shifts the generation chain
// (path.N-1 → path.N, descending, dropping anything past maxGens),
// renames the live file to path.1 and reopens path truncated. Caller
// holds r.mu. Chain-shift failures are non-fatal (a missing middle
// generation just shortens history); only failing to move the live file
// aside degrades to append mode.
func (r *RotatingFile) rotateLocked() error {
	r.f.Close()
	for i := r.maxGens; i >= 2; i-- {
		// Renaming over an existing file replaces it, so the oldest
		// generation (path.maxGens) is dropped by being overwritten.
		os.Rename(r.gen(i-1), r.gen(i))
	}
	renameErr := os.Rename(r.path, r.gen(1))
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if renameErr != nil {
		// Could not shift the generation: fall back to appending to the
		// still-existing file rather than truncating data away.
		f, err := os.OpenFile(r.path, flags, 0o644)
		if err != nil {
			return err
		}
		r.f = f
		if st, err := f.Stat(); err == nil {
			r.size = st.Size()
		}
		return renameErr
	}
	f, err := os.OpenFile(r.path, flags|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	r.f = f
	r.size = 0
	return nil
}

// Close closes the underlying file.
func (r *RotatingFile) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.f.Close()
}
