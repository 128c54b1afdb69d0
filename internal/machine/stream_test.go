package machine

import (
	"bytes"
	"testing"

	"repro/internal/segment"
)

// TestStreamMatchesSession records with StreamTo set and checks that the
// strict segment decoder reconstructs exactly the session's chunk and
// input logs, plus a final segment mirroring the run's reference state.
func TestStreamMatchesSession(t *testing.T) {
	prog := counterProg(200, 4)
	var buf bytes.Buffer
	res := run(t, prog, func(c *Config) {
		c.Mode = ModeFull
		c.Cores = 2
		c.Seed = 7
		c.StreamTo = &buf
		c.FlushEveryChunks = 4
	})
	if res.StreamSegments == 0 || res.StreamBytes == 0 {
		t.Fatalf("no stream accounting: segments=%d bytes=%d", res.StreamSegments, res.StreamBytes)
	}
	if uint64(buf.Len()) != res.StreamBytes {
		t.Fatalf("StreamBytes=%d but wrote %d", res.StreamBytes, buf.Len())
	}
	if res.StreamFramingBytes == 0 || res.StreamFramingBytes >= res.StreamBytes {
		t.Fatalf("implausible framing bytes %d of %d", res.StreamFramingBytes, res.StreamBytes)
	}

	st, err := segment.Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("strict decode of live stream: %v", err)
	}
	if st.Manifest.ProgramName != prog.Name || st.Manifest.Threads != 4 {
		t.Fatalf("manifest = %+v", st.Manifest)
	}
	if st.Final == nil {
		t.Fatal("stream missing final segment")
	}
	if st.Final.MemChecksum != res.MemChecksum || !bytes.Equal(st.Final.Output, res.Output) {
		t.Fatal("final segment disagrees with run result")
	}
	for tid, l := range st.ChunkLogs {
		want := res.Session.ChunkLog(tid)
		if l.Len() != want.Len() {
			t.Fatalf("thread %d: streamed %d chunks, session has %d", tid, l.Len(), want.Len())
		}
		for i, e := range l.Entries {
			if e != want.Entries[i] {
				t.Fatalf("thread %d entry %d: streamed %v, session %v", tid, i, e, want.Entries[i])
			}
		}
	}
	sessIn := res.Session.InputLog()
	if st.InputLog.Len() != sessIn.Len() {
		t.Fatalf("streamed %d input records, session has %d", st.InputLog.Len(), sessIn.Len())
	}
	for i, r := range st.InputLog.Records {
		if r.String() != sessIn.Records[i].String() {
			t.Fatalf("input record %d: streamed %v, session %v", i, r, sessIn.Records[i])
		}
	}
}

// TestStreamCarriesCheckpoint checks that a checkpointed run embeds a
// checkpoint segment whose stream positions line up with the machine's
// snapshot.
func TestStreamCarriesCheckpoint(t *testing.T) {
	prog := counterProg(400, 2)
	var buf bytes.Buffer
	res := run(t, prog, func(c *Config) {
		c.Mode = ModeFull
		c.Cores = 2
		c.StreamTo = &buf
		c.FlushEveryChunks = 4
		c.CheckpointEveryInstrs = 500
	})
	if len(res.Checkpoints) == 0 {
		t.Fatal("run took no checkpoint")
	}
	st, err := segment.Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("strict decode: %v", err)
	}
	if len(st.Checkpoints) != len(res.Checkpoints) {
		t.Fatalf("stream carries %d checkpoint segments, machine took %d", len(st.Checkpoints), len(res.Checkpoints))
	}
	ck := res.Checkpoints[len(res.Checkpoints)-1]
	cp := st.Checkpoints[len(st.Checkpoints)-1]
	if cp.RetiredAt != ck.RetiredAt {
		t.Fatalf("checkpoint RetiredAt: stream %d, machine %d", cp.RetiredAt, ck.RetiredAt)
	}
	for tid, pos := range cp.ChunkPos {
		if pos != ck.ChunkPos[tid] {
			t.Fatalf("thread %d ChunkPos: stream %d, machine %d", tid, pos, ck.ChunkPos[tid])
		}
		if pos > st.ChunkLogs[tid].Len() {
			t.Fatalf("thread %d ChunkPos %d beyond streamed log %d", tid, pos, st.ChunkLogs[tid].Len())
		}
	}
	if cp.InputPos != ck.InputPos || cp.InputPos > st.InputLog.Len() {
		t.Fatalf("InputPos: stream %d, machine %d, log %d", cp.InputPos, ck.InputPos, st.InputLog.Len())
	}
}

// TestStreamDefaultFlushCadence checks the default flush interval kicks
// in when FlushEveryChunks is left zero.
func TestStreamDefaultFlushCadence(t *testing.T) {
	prog := counterProg(50, 2)
	var buf bytes.Buffer
	res := run(t, prog, func(c *Config) {
		c.Mode = ModeFull
		c.StreamTo = &buf
	})
	if res.StreamSegments < 3 { // manifest + at least one epoch + final
		t.Fatalf("only %d segments streamed", res.StreamSegments)
	}
	if _, err := segment.Decode(buf.Bytes()); err != nil {
		t.Fatalf("strict decode: %v", err)
	}
}
