package ingest

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/wire"
)

// Pack layout. The pack opens with packHeader, the magic "QPAK" and
// version 1; each record is
//
//	sha256 [32] | len u64 LE | data [len] | crc32c u32 LE
//
// where the CRC-32C covers everything before it in the record.
const (
	packName       = "objects.qpack"
	packHeader     = "QPAK\x01"
	recordHeadLen  = digestSize + 8
	recordOverhead = recordHeadLen + 4
)

// extent is where an object's bytes sit in the pack.
type extent struct {
	off, n int64
}

// Store is the content-addressed bundle store: one append-only pack
// file, objects.qpack, in the store directory, and an in-memory index
// from each object's SHA-256 to its bytes in the pack. Putting a new
// object appends one record (digest, length, bytes, CRC) with one
// write and one fsync of the open pack, and indexes it only once the
// fsync has returned, so an object that Put reported stored is
// durable. Storing bytes that already exist is an index hit (content
// addressing makes dedupe free). OpenStore scans the pack once; the
// first record that is short or fails its CRC is a torn tail, and the
// pack is cut there. One mutex covers the append, the fsync and the
// index, and a lock on the pack keeps a second store off the directory.
type Store struct {
	mu    sync.Mutex
	f     *os.File // nil once closed
	end   int64    // where the next record goes
	index map[[digestSize]byte]extent
}

// OpenStore opens (creating if needed) the bundle store rooted at dir.
// It refuses a directory that another open store holds, and one holding
// objects/, the per-object layout this store replaced, rather than read
// it as empty.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: open store: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "objects")); err == nil {
		return nil, fmt.Errorf("ingest: open store: %s holds objects/, the retired one-file-per-object layout; a store keeps every object in %s and does not read that layout", dir, packName)
	}
	f, err := os.OpenFile(filepath.Join(dir, packName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ingest: open store: %w", err)
	}
	if err := lockPack(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("ingest: open store: %s is in use by another store: %w", dir, err)
	}
	s, err := openPack(f, dir)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ingest: open store: %w", err)
	}
	return s, nil
}

// openPack indexes the pack f and cuts its torn tail. A pack without
// a whole header is new, or was torn while it was created, and gets
// the header. Then the pack and its directory are fsynced, so the cut,
// the header and the pack's name are as durable as the records that
// follow.
func openPack(f *os.File, dir string) (*Store, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	index, end, err := scanPack(f, fi.Size())
	if err != nil {
		return nil, err
	}
	if end < fi.Size() {
		if err := f.Truncate(end); err != nil {
			return nil, err
		}
	}
	if end == 0 {
		if _, err := f.WriteAt([]byte(packHeader), 0); err != nil {
			return nil, err
		}
		end = int64(len(packHeader))
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	return &Store{f: f, end: end, index: index}, nil
}

// syncDir fsyncs a directory, making the names in it durable.
func syncDir(dir string) error {
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

// scanPack indexes the pack of the given size that r reads. It checks
// the header, then each record's CRC, and stops at the first record
// that is short or fails its CRC, returning the offset where that
// record starts: the end of the pack's valid prefix. A pack shorter
// than its header whose bytes begin the header scans to end 0. A
// digest recorded twice maps to its last record. Only a wrong header
// or a failed read is an error, so a read error never passes for a
// torn tail.
func scanPack(r io.ReaderAt, size int64) (index map[[digestSize]byte]extent, end int64, err error) {
	var head [recordHeadLen]byte
	hdr := head[:min(size, int64(len(packHeader)))]
	if err := readAt(r, hdr, 0); err != nil {
		return nil, 0, err
	}
	if string(hdr) != packHeader[:len(hdr)] {
		return nil, 0, fmt.Errorf("%s: header %q, want %q", packName, hdr, packHeader)
	}
	index = make(map[[digestSize]byte]extent)
	if len(hdr) < len(packHeader) {
		return index, 0, nil
	}
	end = int64(len(packHeader))
	buf := make([]byte, 64<<10)
	for size-end >= recordOverhead {
		if err := readAt(r, head[:], end); err != nil {
			return nil, 0, err
		}
		n := binary.LittleEndian.Uint64(head[digestSize:])
		if n > uint64(size-end-recordOverhead) {
			break // short: the record runs past the end of the pack
		}
		crc := crc32.Checksum(head[:], castagnoli)
		off := end + recordHeadLen
		for rest := int64(n); rest > 0; {
			chunk := buf[:min(rest, int64(len(buf)))]
			if err := readAt(r, chunk, off); err != nil {
				return nil, 0, err
			}
			crc = crc32.Update(crc, castagnoli, chunk)
			off += int64(len(chunk))
			rest -= int64(len(chunk))
		}
		var tail [4]byte
		if err := readAt(r, tail[:], off); err != nil {
			return nil, 0, err
		}
		if binary.LittleEndian.Uint32(tail[:]) != crc {
			break
		}
		index[[digestSize]byte(head[:digestSize])] = extent{off: end + recordHeadLen, n: int64(n)}
		end = off + 4
	}
	return index, end, nil
}

// readAt fills p from r at off. A ReaderAt may return io.EOF with a
// full read that ends at its end; only a short read is an error.
func readAt(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	return err
}

// appendRecord appends data's pack record under sum to a.
func appendRecord(a *wire.Appender, sum [digestSize]byte, data []byte) {
	at := a.Len()
	a.Grow(recordOverhead + len(data))
	a.Raw(sum[:])
	a.U64(uint64(len(data)))
	a.Raw(data)
	a.U32(crc32.Checksum(a.Buf[at:], castagnoli))
}

// Put stores data under sum, which must be its SHA-256, and returns the
// hex digest. The server has already checked an upload's digest when it
// stores it, so the store does not hash the bytes again. existed
// reports that an identical bundle was already present (nothing was
// written — content addressing deduplicates). A failed write or fsync
// indexes nothing, and the next record is written over its bytes.
func (s *Store) Put(data []byte, sum [digestSize]byte) (digest string, existed bool, err error) {
	digest = hex.EncodeToString(sum[:])
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[sum]; ok {
		return digest, true, nil
	}
	if s.f == nil {
		return "", false, fmt.Errorf("ingest: store put: %w", fs.ErrClosed)
	}
	rec := wire.GetAppender()
	defer wire.PutAppender(rec)
	appendRecord(rec, sum, data)
	if _, err := s.f.WriteAt(rec.Buf, s.end); err != nil {
		return "", false, fmt.Errorf("ingest: store put: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return "", false, fmt.Errorf("ingest: store put: %w", err)
	}
	s.index[sum] = extent{off: s.end + recordHeadLen, n: int64(len(data))}
	s.end += int64(len(rec.Buf))
	return digest, false, nil
}

// Get returns the bundle stored under digest.
func (s *Store) Get(digest string) ([]byte, error) {
	var sum [digestSize]byte
	if len(digest) != 2*digestSize {
		return nil, fmt.Errorf("ingest: malformed digest %q", digest)
	}
	if _, err := hex.Decode(sum[:], []byte(digest)); err != nil {
		return nil, fmt.Errorf("ingest: malformed digest %q", digest)
	}
	s.mu.Lock()
	e, ok := s.index[sum]
	f := s.f
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("ingest: store get: %s: %w", digest, fs.ErrNotExist)
	}
	if f == nil {
		return nil, fmt.Errorf("ingest: store get: %w", fs.ErrClosed)
	}
	data := make([]byte, e.n)
	if _, err := f.ReadAt(data, e.off); err != nil {
		return nil, fmt.Errorf("ingest: store get: %w", err)
	}
	return data, nil
}

// List returns the digests of every stored bundle, sorted.
func (s *Store) List() ([]string, error) {
	s.mu.Lock()
	out := make([]string, 0, len(s.index))
	for sum := range s.index {
		out = append(out, hex.EncodeToString(sum[:]))
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out, nil
}

// Close closes the pack. Put and Get fail afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
