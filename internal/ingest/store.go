package ingest

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Store is the content-addressed bundle store: every uploaded stream
// lands at objects/<hh>/<digest>.qstream where <digest> is the
// lowercase-hex SHA-256 of the rendered stream bytes and <hh> its first
// two characters. Writes go through a temp file in the same directory
// followed by an atomic rename, so a crash mid-store leaves either the
// complete bundle or nothing addressable — never a torn object. Storing
// bytes that already exist is a no-op (content addressing makes dedupe
// free), which is also what makes concurrent shards storing the same
// digest safe: both rename identical content onto the same name.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a bundle store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("ingest: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// objectPath maps a hex digest to its object file.
func (s *Store) objectPath(digest string) string {
	return filepath.Join(s.dir, "objects", digest[:2], digest+".qstream")
}

// Put stores data under sum, which must be its SHA-256, and returns the
// hex digest. The server has already checked an upload's digest when it
// stores it, so the store does not hash the bytes again. existed
// reports that an identical bundle was already present (the write was
// skipped — content addressing deduplicates).
func (s *Store) Put(data []byte, sum [digestSize]byte) (digest string, existed bool, err error) {
	digest = hex.EncodeToString(sum[:])
	path := s.objectPath(digest)
	if _, err := os.Stat(path); err == nil {
		return digest, true, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", false, fmt.Errorf("ingest: store put: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+digest+".tmp-")
	if err != nil {
		return "", false, fmt.Errorf("ingest: store put: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return "", false, fmt.Errorf("ingest: store put: %w", err)
	}
	// The bundle must be durable before it becomes addressable: fsync the
	// file, then rename it into place.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", false, fmt.Errorf("ingest: store put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", false, fmt.Errorf("ingest: store put: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", false, fmt.Errorf("ingest: store put: %w", err)
	}
	return digest, false, nil
}

// Get returns the bundle stored under digest.
func (s *Store) Get(digest string) ([]byte, error) {
	if len(digest) != 2*digestSize {
		return nil, fmt.Errorf("ingest: malformed digest %q", digest)
	}
	data, err := os.ReadFile(s.objectPath(digest))
	if err != nil {
		return nil, fmt.Errorf("ingest: store get: %w", err)
	}
	return data, nil
}

// List returns the digests of every stored bundle, sorted.
func (s *Store) List() ([]string, error) {
	var out []string
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		ext := filepath.Ext(name)
		if ext != ".qstream" {
			return nil // a straggler temp file from a crashed store
		}
		out = append(out, name[:len(name)-len(ext)])
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ingest: store list: %w", err)
	}
	sort.Strings(out)
	return out, nil
}
