package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/allocpin"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/segment"
	"repro/internal/wire"
	"repro/internal/workload"
)

// recordStream records the named catalogue workload and returns its
// segmented stream image plus the recorded bundle.
func recordStream(t testing.TB, name string, threads int, seed uint64) (*core.Bundle, []byte) {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	prog := spec.Build(threads)
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Cores = 2
	cfg.Threads = threads
	cfg.Seed = seed
	cfg.KernelSeed = seed + 1000
	cfg.FlushEveryChunks = 8
	cfg.CheckpointEveryInstrs = 2000
	var buf bytes.Buffer
	b, err := core.StreamRecord(prog, cfg, &buf)
	if err != nil {
		t.Fatalf("stream record %s: %v", name, err)
	}
	return b, buf.Bytes()
}

// startServer runs an ingest server on an ephemeral loopback port with
// a temp-dir store, tearing it down with the test.
func startServer(t testing.TB, mut func(*Config)) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.StoreDir = t.TempDir()
	cfg.Verifiers = 1
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStorePutGetDedupe(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("quickrec stream bytes")
	sum := sha256.Sum256(data)
	d1, existed, err := st.Put(data, sum)
	if err != nil || existed {
		t.Fatalf("first put: %s existed=%v err=%v", d1, existed, err)
	}
	if want := hexDigest(sum); d1 != want {
		t.Fatalf("digest %s, want %s", d1, want)
	}
	d2, existed, err := st.Put(data, sum)
	if err != nil || !existed || d2 != d1 {
		t.Fatalf("second put: %s existed=%v err=%v", d2, existed, err)
	}
	got, err := st.Get(d1)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get: %q %v", got, err)
	}
	list, err := st.List()
	if err != nil || len(list) != 1 || list[0] != d1 {
		t.Fatalf("list: %v %v", list, err)
	}
	if _, err := st.Get("nope"); err == nil {
		t.Fatal("get of malformed digest succeeded")
	}
}

func TestUploadStoreVerify(t *testing.T) {
	bundle, stream := recordStream(t, "counter", 2, 1)
	s := startServer(t, nil)

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	digest, dup, err := c.Upload("sphere-a", stream)
	if err != nil || dup {
		t.Fatalf("upload: %s dup=%v err=%v", digest, dup, err)
	}
	stored, err := s.Store().Get(digest)
	if err != nil || !bytes.Equal(stored, stream) {
		t.Fatalf("stored bundle differs from upload: %v", err)
	}

	s.WaitIdle()
	v, ok := s.Verdict("sphere-a", digest)
	if !ok {
		t.Fatal("no verdict published")
	}
	if v.Status != StatusAccepted {
		t.Fatalf("verdict %s (%s), want accepted", v.Status, v.Detail)
	}
	// The server's verification replay must agree bit-for-bit with a
	// local replay of the same recording.
	spec, _ := workload.ByName("counter")
	rr, err := core.Replay(spec.Build(2), bundle)
	if err != nil {
		t.Fatal(err)
	}
	if v.MemChecksum != rr.MemChecksum || v.Steps != rr.Steps {
		t.Fatalf("server replayed (sum %#x, %d steps), local (sum %#x, %d steps)",
			v.MemChecksum, v.Steps, rr.MemChecksum, rr.Steps)
	}

	ctrs := s.Counters()
	if ctrs.Accepted != 1 || ctrs.Duplicates != 0 || ctrs.VerdictsBy[StatusAccepted] != 1 {
		t.Fatalf("counters: %+v", ctrs)
	}
}

// TestUploadSessionEndsAtAck pins that the server ends an upload
// session once it has sent the ACK, so a Client that tries a second
// upload on the connection fails at once instead of waiting forever for
// a WELCOME. The read deadline only bounds a server that keeps the
// connection open.
func TestUploadSessionEndsAtAck(t *testing.T) {
	_, stream := recordStream(t, "counter", 2, 8)
	s := startServer(t, nil)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Upload("sphere-e", stream); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if kind, _, err := readFrame(c.br); err != io.EOF {
		t.Fatalf("read after the ack: %s, %v, want io.EOF", kind, err)
	}
}

func TestDuplicateUploadDeduplicates(t *testing.T) {
	_, stream := recordStream(t, "counter", 2, 2)
	s := startServer(t, nil)
	d1, dup1, _, err := Upload(s.Addr(), "sphere-a", stream, 1, 0)
	if err != nil || dup1 {
		t.Fatalf("first upload: %v dup=%v", err, dup1)
	}
	d2, dup2, _, err := Upload(s.Addr(), "sphere-a", stream, 1, 0)
	if err != nil || !dup2 || d2 != d1 {
		t.Fatalf("second upload: %s dup=%v err=%v", d2, dup2, err)
	}
	list, err := s.Store().List()
	if err != nil || len(list) != 1 {
		t.Fatalf("store holds %v, want exactly one bundle", list)
	}
	s.WaitIdle()
	if n := s.Counters().VerdictsBy[StatusAccepted]; n != 1 {
		t.Fatalf("%d accepted verdicts for one deduplicated bundle", n)
	}
}

func TestTornRecordingUploadsAsTornVerdict(t *testing.T) {
	// A complete upload of a torn *recording*: the recorder died mid-run
	// and its salvage tool shipped the surviving prefix.
	_, stream := recordStream(t, "counter", 2, 3)
	offs := segment.Offsets(stream)
	if len(offs) < 4 {
		t.Fatalf("stream too short: %d segments", len(offs))
	}
	cut := stream[:offs[len(offs)/2]]
	s := startServer(t, nil)
	digest, _, _, err := Upload(s.Addr(), "sphere-t", cut, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	v, ok := s.Verdict("sphere-t", digest)
	if !ok || v.Status != StatusTorn {
		t.Fatalf("verdict %+v, want torn", v)
	}
	if v.Steps == 0 {
		t.Fatal("torn verdict carries no prefix-replay evidence")
	}
}

func TestTornUploadAbortsWithoutStoring(t *testing.T) {
	_, stream := recordStream(t, "counter", 2, 4)
	s := startServer(t, nil)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UploadTorn("sphere-x", stream, len(stream)/2); err != nil {
		t.Fatalf("torn upload: %v", err)
	}
	// The abort is processed asynchronously; poll the counter.
	deadline := time.Now().Add(5 * time.Second)
	for s.Counters().Aborted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("aborted upload never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	list, err := s.Store().List()
	if err != nil || len(list) != 0 {
		t.Fatalf("torn upload left %v in the store", list)
	}
}

func TestUnknownProgramVerdictUnverifiable(t *testing.T) {
	spec, _ := workload.ByName("counter")
	prog := spec.Build(2)
	prog.Name = "prog-not-in-catalogue"
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Cores = 2
	cfg.Threads = 2
	var buf bytes.Buffer
	if _, err := core.StreamRecord(prog, cfg, &buf); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, nil)
	digest, _, _, err := Upload(s.Addr(), "sphere-u", buf.Bytes(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	if v, _ := s.Verdict("sphere-u", digest); v.Status != StatusUnverifiable {
		t.Fatalf("verdict %+v, want unverifiable", v)
	}
}

func TestDigestMismatchRejected(t *testing.T) {
	_, stream := recordStream(t, "counter", 2, 5)
	s := startServer(t, nil)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.hello("sphere-d", uint64(len(stream))); err != nil {
		t.Fatal(err)
	}
	if err := c.sendData(stream); err != nil {
		t.Fatal(err)
	}
	var fin finishPayload // declare an all-zero digest: a corrupted upload
	if err := c.send(FrameFinish, func(a *wire.Appender) { appendFinish(a, fin) }); err != nil {
		t.Fatal(err)
	}
	var se *ServerError
	for {
		_, _, err := c.recv()
		if err == nil {
			continue // drain late grants
		}
		if !errors.As(err, &se) {
			t.Fatalf("error %v, want ServerError", err)
		}
		break
	}
	if se.Code != CodeDigestMismatch || se.Retryable {
		t.Fatalf("rejection %+v, want non-retryable digest mismatch", se)
	}
	if list, _ := s.Store().List(); len(list) != 0 {
		t.Fatalf("mismatched upload stored: %v", list)
	}
}

func TestOversizeUploadRejected(t *testing.T) {
	_, stream := recordStream(t, "counter", 2, 6)
	s := startServer(t, func(c *Config) { c.MaxUploadBytes = 16 })
	_, _, _, err := Upload(s.Addr(), "sphere-o", stream, 1, 0)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeTooLarge || se.Retryable {
		t.Fatalf("oversize upload: %v, want non-retryable too-large", err)
	}

	// A HELLO that declares no size passes the declared-size check, so
	// the cap must stop the bytes themselves.
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.hello("sphere-o", 0); err != nil {
		t.Fatal(err)
	}
	err = c.sendData(stream)
	for err == nil {
		_, _, err = c.recv() // grants until the rejection
	}
	if !errors.As(err, &se) || se.Code != CodeTooLarge || se.Retryable {
		t.Fatalf("undeclared oversize upload: %v, want non-retryable too-large", err)
	}
	if list, _ := s.Store().List(); len(list) != 0 {
		t.Fatalf("oversize upload stored: %v", list)
	}
}

// shedThenAccept is a front end that sheds its first sheds sessions
// with a retryable overload error (exactly what a server with no upload
// slot free sends) and proxies later sessions to the real server — a
// deterministic way to exercise the client's shed-retry loop. With
// midUpload it sheds mid-upload, the way any rejection the server sends
// while the client is still writing arrives: after a WELCOME granting
// the declared size and one DATA frame.
func shedThenAccept(t *testing.T, sheds int, s *Server, midUpload bool) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if i < sheds {
				fe := newSession(conn, 0)
				_, hello, _ := fe.recv()
				if midUpload {
					h, _ := decodeHello(hello)
					fe.send(FrameWelcome, func(a *wire.Appender) {
						appendWelcome(a, welcomePayload{Version: protoVersion, Credit: h.SizeHint})
					})
					fe.recv()
				}
				fe.send(FrameError, func(a *wire.Appender) {
					appendError(a, ServerError{Code: CodeOverloaded, Retryable: true, Msg: "no upload slot free"})
				})
				conn.Close()
				continue
			}
			// Proxy the session to the real server.
			up, err := net.Dial("tcp", s.Addr())
			if err != nil {
				conn.Close()
				return
			}
			go func() { defer up.Close(); defer conn.Close(); copyConn(up, conn) }()
			go func() { copyConn(conn, up) }()
		}
	}()
	return ln.Addr().String()
}

func copyConn(dst, src net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func TestUploadRetriesShedSessions(t *testing.T) {
	_, stream := recordStream(t, "counter", 2, 7)
	s := startServer(t, nil)
	addr := shedThenAccept(t, 2, s, false)
	digest, _, retries, err := Upload(addr, "sphere-r", stream, 4, time.Millisecond)
	if err != nil {
		t.Fatalf("upload through shedding front end: %v", err)
	}
	if retries != 2 {
		t.Fatalf("%d retries, want 2", retries)
	}
	if _, err := s.Store().Get(digest); err != nil {
		t.Fatalf("retried upload not stored: %v", err)
	}
	// Exhausting attempts surfaces the typed retryable error.
	addr2 := shedThenAccept(t, 1000, s, false)
	_, _, _, err = Upload(addr2, "sphere-r", stream, 2, time.Millisecond)
	if !IsRetryable(err) {
		t.Fatalf("exhausted retries: %v, want retryable ServerError", err)
	}
}

// TestUploadShedMidUploadIsTyped is the regression test for a shed that
// lands while the client is still sending. The server sends ERROR and
// closes with DATA unread, so the client's next write fails on a reset
// connection; the upload must still return the server's retryable
// ERROR, not the write error.
func TestUploadShedMidUploadIsTyped(t *testing.T) {
	// Incompressible, so it travels as DATA frames of its own size, and
	// more than the loopback socket buffers hold, so the client is still
	// writing when the front end closes.
	stream := make([]byte, 16<<20)
	rand.New(rand.NewSource(1)).Read(stream)
	addr := shedThenAccept(t, 1000, nil, true)
	_, _, _, err := Upload(addr, "sphere-m", stream, 1, 0)
	var se *ServerError
	if !errors.As(err, &se) || !IsRetryable(err) {
		t.Fatalf("mid-upload shed: %v, want a retryable ServerError", err)
	}
}

// TestNewServerNeedsWriteTimeout pins that every server session writes
// under a deadline, which is how the session type tells a server end
// (it severs itself on a failed write) from a client end. At zero every
// server write used to fail at once.
func TestNewServerNeedsWriteTimeout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StoreDir = t.TempDir()
	cfg.WriteTimeout = 0
	if s, err := NewServer(cfg); err == nil {
		s.Close()
		t.Fatal("NewServer accepted a zero write timeout")
	}
}

func TestUploadAdmissionShedsWhenFull(t *testing.T) {
	// White-box: a server with one upload slot and no sessions, so the
	// slot state is exact.
	slots := make(chan struct{}, 1)
	s := &Server{cfg: Config{ShedTimeout: 5 * time.Millisecond}, slots: slots}
	if !s.admit() {
		t.Fatal("a HELLO was shed with a slot free")
	}
	start := time.Now()
	if s.admit() {
		t.Fatal("a HELLO was admitted with every slot taken")
	}
	if waited := time.Since(start); waited < 5*time.Millisecond {
		t.Fatalf("shed after %v, before the shed timeout elapsed", waited)
	}
	// A slot freed during the wait admits the HELLO instead.
	slow := &Server{cfg: Config{ShedTimeout: 5 * time.Second}, slots: slots}
	go func() {
		time.Sleep(10 * time.Millisecond)
		<-slots
	}()
	if !slow.admit() {
		t.Fatal("a HELLO was shed although a slot freed within the timeout")
	}
}

// TestReserveGrowsGeometrically pins how an upload's buffer grows as
// 64 KiB frames arrive: to at least twice its length when a frame does
// not fit, capped at the HELLO's size hint while the bytes fit in it,
// and never reserved from the hint alone.
func TestReserveGrowsGeometrically(t *testing.T) {
	const frame = 64 << 10
	cases := []struct {
		name   string
		frames int
		hint   uint64
		want   []int // capacity after each frame, in KiB
	}{
		{"no hint", 5, 0, []int{64, 128, 256, 256, 512}},
		{"exact hint", 7, 7 * frame, []int{64, 128, 256, 256, 448, 448, 448}},
		// A hint of the largest upload allowed claims nothing up front.
		{"cap-sized hint", 1, 64 << 20, []int{64}},
		// Once the bytes outgrow the hint, growth doubles again.
		{"outgrown hint", 4, 3 * frame, []int{64, 128, 192, 384}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf wire.Appender
			for i, want := range tc.want {
				reserve(&buf, frame, tc.hint)
				buf.Raw(make([]byte, frame))
				if got := cap(buf.Buf); got != want<<10 {
					t.Fatalf("after frame %d: capacity %d B, want %d KiB", i+1, got, want)
				}
			}
		})
	}
}

// TestFaninAllocs pins the allocations and allocated bytes of the
// service path end to end: 64 uploaders push four seed-variant counter
// streams (4 threads) through a loopback server, with framing, credit
// flow, admission, the store and verification, and the run ends once
// every verdict is out. Distinct streams keep the store and verifier
// pool honest, since identical uploads deduplicate. The ceilings are
// 25% above the largest of five plain and three -race runs on go1.24.0,
// since CI runs the pin both ways; the pushed bytes are exact.
func TestFaninAllocs(t *testing.T) {
	const uploaders = 64
	var streams [][]byte
	distinct := make(map[string]bool)
	for seed := uint64(1); seed <= 4; seed++ {
		data, err := RecordWorkloadStream("counter", 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, data)
		sum := sha256.Sum256(data)
		distinct[hex.EncodeToString(sum[:])] = true
	}
	allocpin.Check(t, 16_783, 117_228_560, func() {
		// A fresh store per run: a populated one would measure the
		// dedupe fast path instead of ingest.
		cfg := DefaultConfig()
		cfg.StoreDir = t.TempDir()
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		defer srv.Close()
		lg, err := Loadgen(LoadgenConfig{
			Addr:       srv.Addr(),
			Uploaders:  uploaders,
			UploadsPer: 1,
			Tenants:    []string{"bench-0", "bench-1", "bench-2", "bench-3"},
			Streams:    streams,
			Attempts:   5,
			Backoff:    10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.WaitIdle()
		if lg.Failures != 0 || lg.Uploads != uploaders {
			t.Fatalf("%d of %d uploads acked, %d failed", lg.Uploads, uploaders, lg.Failures)
		}
		if lg.Bytes != 28_091_952 {
			t.Errorf("pushed %d bytes, want 28091952", lg.Bytes)
		}
		stored, err := srv.Store().List()
		if err != nil {
			t.Fatal(err)
		}
		if len(stored) != len(streams) {
			t.Errorf("stored %d bundles, want %d distinct", len(stored), len(streams))
		}
		for _, d := range stored {
			if !distinct[d] {
				t.Errorf("stored unexpected bundle %s", d)
			}
		}
		ctrs := srv.Counters()
		for _, st := range []VerdictStatus{StatusTorn, StatusDiverged, StatusUnverifiable} {
			if n := ctrs.VerdictsBy[st]; n != 0 {
				t.Errorf("published %d %s verdicts", n, st)
			}
		}
		if ctrs.VerdictsBy[StatusAccepted] == 0 {
			t.Error("published no accepted verdicts")
		}
	})
}

// BenchmarkUpload measures the host cost of the upload path: each op
// is one loopback upload of a recorded ioheavy stream, from dial to
// ACK. An 8-byte op counter after the stream makes every op's object
// new, so each op stores, and the fleet tenant skips verification.
func BenchmarkUpload(b *testing.B) {
	_, stream := recordStream(b, "ioheavy", 4, 1)
	s := startServer(b, nil)
	data := append(stream, make([]byte, 8)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(data[len(stream):], uint64(i))
		if _, dup, _, err := Upload(s.Addr(), FleetTenant, data, 1, 0); err != nil || dup {
			b.Fatalf("upload %d: dup=%v err=%v", i, dup, err)
		}
	}
}
