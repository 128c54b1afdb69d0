package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/wire"
)

// putAll stores each of objs, new to st.
func putAll(t *testing.T, st *Store, objs ...[]byte) {
	t.Helper()
	for _, o := range objs {
		if _, existed, err := st.Put(o, sha256.Sum256(o)); err != nil || existed {
			t.Fatalf("put %d bytes: existed=%v err=%v", len(o), existed, err)
		}
	}
}

// reopen closes st and opens the store in dir again.
func reopen(t *testing.T, st *Store, dir string) *Store {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return st
}

// wantContents fails t unless st holds exactly objs.
func wantContents(t *testing.T, st *Store, objs ...[]byte) {
	t.Helper()
	var want []string
	for _, o := range objs {
		sum := sha256.Sum256(o)
		want = append(want, hexDigest(sum))
		got, err := st.Get(hexDigest(sum))
		if err != nil || !bytes.Equal(got, o) {
			t.Fatalf("get of a %d-byte object: %d bytes, %v", len(o), len(got), err)
		}
	}
	list, _ := st.List()
	sort.Strings(want)
	if !slices.Equal(list, want) {
		t.Fatalf("store lists %v, want %v", list, want)
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestStoreReopen(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	objs := [][]byte{{}, {7}, randBytes(rng, 64<<10), randBytes(rng, 1<<20)}
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, st, objs...)
	wantContents(t, st, objs...)
	st = reopen(t, st, dir)
	defer st.Close()
	wantContents(t, st, objs...)
	for _, o := range objs {
		if _, existed, err := st.Put(o, sha256.Sum256(o)); err != nil || !existed {
			t.Fatalf("put of a stored %d-byte object after reopen: existed=%v err=%v", len(o), existed, err)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, packName))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(packHeader))
	for _, o := range objs {
		want += int64(recordOverhead + len(o))
	}
	if fi.Size() != want {
		t.Fatalf("pack is %d bytes, want %d: header and one record per object", fi.Size(), want)
	}
}

// TestStoreConcurrentPuts has four goroutines put and get objects at
// once, half of them shared: each digest is written once, and a reopen
// holds every object.
func TestStoreConcurrentPuts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shared := [][]byte{randBytes(rng, 900), randBytes(rng, 40)}
	var objs [][]byte
	var wg sync.WaitGroup
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		own := [][]byte{randBytes(rng, 100*g), randBytes(rng, 7000)}
		objs = append(objs, own...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range append(own, shared...) {
				d, _, err := st.Put(o, sha256.Sum256(o))
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := st.Get(d); err != nil || !bytes.Equal(got, o) {
					t.Errorf("get after put: %d bytes, %v", len(got), err)
				}
			}
		}()
	}
	wg.Wait()
	objs = append(objs, shared...)
	wantContents(t, st, objs...)
	size := int64(len(packHeader))
	for _, o := range objs {
		size += int64(recordOverhead + len(o))
	}
	if st.end != size {
		t.Fatalf("pack ends at %d, want %d: one record per distinct object", st.end, size)
	}
	st = reopen(t, st, dir)
	defer st.Close()
	wantContents(t, st, objs...)
}

// TestServerReopenKeepsUploads restarts a server on its store: an
// acked upload is still there, and uploading it again is a duplicate.
func TestServerReopenKeepsUploads(t *testing.T) {
	_, stream := recordStream(t, "counter", 2, 5)
	dir := t.TempDir()
	s := startServer(t, func(c *Config) { c.StoreDir = dir })
	digest, dup, _, err := Upload(s.Addr(), "sphere-r", stream, 1, 0)
	if err != nil || dup {
		t.Fatalf("upload: dup=%v err=%v", dup, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = startServer(t, func(c *Config) { c.StoreDir = dir })
	stored, err := s.Store().Get(digest)
	if err != nil || !bytes.Equal(stored, stream) {
		t.Fatalf("after restart the store returns %d bytes, %v; want the upload", len(stored), err)
	}
	again, dup, _, err := Upload(s.Addr(), "sphere-r", stream, 1, 0)
	if err != nil || !dup || again != digest {
		t.Fatalf("re-upload after restart: %s dup=%v err=%v", again, dup, err)
	}
}

// TestStoreTornTail damages the last record of a pack, cut at every
// offset inside it or with a bit flipped in each of its fields. A
// reopen keeps exactly the earlier objects and truncates the pack to
// their end, and a new object put then survives another reopen.
func TestStoreTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	earlier := [][]byte{randBytes(rng, 300), {}, randBytes(rng, 5000)}
	last := randBytes(rng, 16)
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, st, earlier...)
	keep := st.end
	putAll(t, st, last)
	st.Close()
	path := filepath.Join(dir, packName)
	pack, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(pack)) != keep+recordOverhead+int64(len(last)) {
		t.Fatalf("pack is %d bytes, want %d", len(pack), keep+recordOverhead+int64(len(last)))
	}
	type damage struct {
		what string
		pack []byte
	}
	var cases []damage
	for cut := keep; cut < int64(len(pack)); cut++ {
		cases = append(cases, damage{fmt.Sprintf("cut at %d", cut), pack[:cut]})
	}
	for _, f := range []struct {
		field string
		at    int64
	}{{"digest", 0}, {"len", digestSize}, {"data", recordHeadLen}, {"crc", recordHeadLen + int64(len(last))}} {
		flipped := bytes.Clone(pack)
		flipped[keep+f.at+1] ^= 0x10
		cases = append(cases, damage{"flip in " + f.field, flipped})
	}
	fresh := []byte("put after the torn tail")
	for _, c := range cases {
		if err := os.WriteFile(path, c.pack, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		wantContents(t, st, earlier...)
		if fi, err := os.Stat(path); err != nil || fi.Size() != keep {
			t.Fatalf("%s: pack not truncated to the earlier objects' end %d: %v %v", c.what, keep, fi.Size(), err)
		}
		putAll(t, st, fresh)
		st = reopen(t, st, dir)
		wantContents(t, st, append(earlier, fresh)...)
		st.Close()
	}
}

// TestStoreFailedPut makes a write fail by swapping a read-only handle
// in for the pack: nothing is indexed, and the next put lands where the
// failed one would have.
func TestStoreFailedPut(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := []byte("first object"), []byte("lost to a failed write"), []byte("third object")
	putAll(t, st, a)
	at := st.end
	rw := st.f
	ro, err := os.Open(filepath.Join(dir, packName))
	if err != nil {
		t.Fatal(err)
	}
	st.f = ro
	if _, _, err := st.Put(b, sha256.Sum256(b)); err == nil {
		t.Fatal("put through a read-only pack succeeded")
	}
	if st.end != at {
		t.Fatalf("failed put moved the append offset from %d to %d", at, st.end)
	}
	wantContents(t, st, a)
	st.f = rw
	ro.Close()
	putAll(t, st, c)
	if e := st.index[sha256.Sum256(c)]; e.off != at+recordHeadLen {
		t.Fatalf("next put landed at %d, want %d", e.off-recordHeadLen, at)
	}
	st = reopen(t, st, dir)
	defer st.Close()
	wantContents(t, st, a, c)
}

func TestOpenStoreRefuses(t *testing.T) {
	old := t.TempDir()
	if err := os.MkdirAll(filepath.Join(old, "objects", "ab"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(old); err == nil || !strings.Contains(err.Error(), "objects/") {
		t.Fatalf("opened a directory holding objects/: %v", err)
	}
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, packName), []byte("QPAK\x02"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(bad); err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("opened a pack with a wrong header: %v", err)
	}
}

// walkPack is the fuzz oracle's reading of a pack prefix that scanPack
// accepted: the records from the header to end, each with its CRC
// holding, indexed by the last record of each digest.
func walkPack(t *testing.T, data []byte, end int64) map[[digestSize]byte]extent {
	index := make(map[[digestSize]byte]extent)
	if end == 0 {
		return index
	}
	for off := int64(len(packHeader)); off < end; {
		n := int64(binary.LittleEndian.Uint64(data[off+digestSize:]))
		rec := data[off : off+recordHeadLen+n]
		if crc32.Checksum(rec, castagnoli) != binary.LittleEndian.Uint32(data[off+recordHeadLen+n:]) {
			t.Fatalf("record at %d indexed with a failing CRC", off)
		}
		index[[digestSize]byte(rec)] = extent{off: off + recordHeadLen, n: n}
		off += recordOverhead + n
	}
	return index
}

// FuzzStoreScan holds scanPack to its contract on any bytes: it never
// panics, refuses only a wrong header, indexes only records whose CRC
// holds and ends at the last of them, where the next record is short
// or fails its CRC; and scanning its own valid prefix changes nothing.
func FuzzStoreScan(f *testing.F) {
	var pack wire.Appender
	pack.Raw([]byte(packHeader))
	for _, o := range [][]byte{{}, []byte("quickrec"), bytes.Repeat([]byte{0xab}, 200), []byte("quickrec")} {
		appendRecord(&pack, sha256.Sum256(o), o)
	}
	f.Add(pack.Buf)
	f.Add(pack.Buf[:len(pack.Buf)-3])
	f.Add(pack.Buf[:len(packHeader)+recordHeadLen+2])
	f.Add([]byte(packHeader))
	f.Add([]byte("QPA"))
	f.Add([]byte{})
	f.Add([]byte("QPAK\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		index, end, err := scanPack(bytes.NewReader(data), int64(len(data)))
		prefix := data[:min(len(data), len(packHeader))]
		if err != nil {
			if string(prefix) == packHeader[:len(prefix)] {
				t.Fatalf("refused a good header: %v", err)
			}
			return
		}
		if string(prefix) != packHeader[:len(prefix)] {
			t.Fatalf("accepted header %q", prefix)
		}
		if end > int64(len(data)) || (end == 0) != (len(data) < len(packHeader)) {
			t.Fatalf("scan of %d bytes ended at %d", len(data), end)
		}
		if want := walkPack(t, data, end); !reflect.DeepEqual(index, want) {
			t.Fatalf("index %v, want %v", index, want)
		}
		if rest := int64(len(data)) - end; end > 0 && rest >= recordOverhead {
			n := binary.LittleEndian.Uint64(data[end+digestSize:])
			if n <= uint64(rest-recordOverhead) {
				rec := data[end : end+recordHeadLen+int64(n)]
				if crc32.Checksum(rec, castagnoli) == binary.LittleEndian.Uint32(data[end+recordHeadLen+int64(n):]) {
					t.Fatalf("scan stopped at %d before a whole record whose CRC holds", end)
				}
			}
		}
		again, end2, err := scanPack(bytes.NewReader(data[:end]), end)
		if err != nil || end2 != end || !reflect.DeepEqual(again, index) {
			t.Fatalf("rescan of the valid prefix: end %d (was %d), %d objects (was %d), %v", end2, end, len(again), len(index), err)
		}
	})
}
