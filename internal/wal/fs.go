// Package wal is the durability subsystem: an append-only, CRC32C-framed
// write-ahead log of corpus mutations plus periodic binary snapshots of the
// engine's in-memory state (corpus and analysis warm cache). Recovery reads
// the newest decodable snapshot and replays the log tail after it, stopping
// at the last valid record — so a restarted engine reconstructs exactly the
// acknowledged-and-synced prefix, and its first analysis flush is warm.
//
// Layout on disk (all little-endian):
//
//	wal-<start>.seg    20-byte header ("MASSWSEG", u64 first index, u32 CRC)
//	                   then frames: [u32 len][u32 CRC32C(payload)][payload]
//	snap-<index>.snap  "MASSSNP1", u32 version, u64 len, payload, u32 CRC
//
// A snapshot streams to its temp file in 64 KiB chunks and is never held
// whole in memory. Because its length precedes its payload, the writer
// walks the state twice — once to count the length, once to write — and
// refuses to publish a file whose second walk's length disagrees with the
// first's.
//
// Filesystem access goes through the FS interface so tests can inject
// failing syncs, short writes, and torn tails; production uses the os
// implementation.
package wal

import (
	"io"
	"os"
	"path/filepath"
)

// FS abstracts the directory operations the log needs. Implementations
// other than the default exist for fault injection in tests.
type FS interface {
	MkdirAll(dir string) error
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	// Open opens path read-only.
	Open(path string) (File, error)
	// ReadDir lists the file names in dir, sorted.
	ReadDir(dir string) ([]string, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// SyncDir fsyncs the directory itself, making renames and creates in
	// it durable.
	SyncDir(dir string) error
}

// File is the per-file surface the log uses.
type File interface {
	io.Reader
	io.Writer
	Sync() error
	Close() error
}

// osFS is the production FS backed by the real filesystem.
type osFS struct{}

// OSFS returns the default filesystem implementation.
func OSFS() FS { return osFS{} }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(path string) (File, error) { return os.Create(path) }

func (osFS) Open(path string) (File, error) { return os.Open(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	return names, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
