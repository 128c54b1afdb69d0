package harness

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/workload"
)

// ShootoutResult is one codec's row in the serialization shootout: how
// many bytes the codec spends per recording (and per thousand recorded
// instructions — the paper's log-growth unit), how fast it encodes and
// decodes, and how it compares to the v1 wire format. Modeled on the
// arpc serialization shootout: the same recording pushed through every
// candidate so the numbers are directly comparable.
type ShootoutResult struct {
	Codec          string  `json:"codec"`
	Workload       string  `json:"workload"`
	Bytes          uint64  `json:"bytes"`
	BytesPerKinstr float64 `json:"bytes_per_kinstr"`
	EncodeMBps     float64 `json:"encode_mb_s"`
	DecodeMBps     float64 `json:"decode_mb_s"`
	// RatioVsV1 is v1's encoded size divided by this codec's: >1 means
	// smaller than v1, <1 means the codec inflates the recording.
	RatioVsV1 float64 `json:"ratio_vs_v1"`
}

// shootoutCodec is one shootout candidate: a named encode/decode pair
// over a *core.Bundle. Decode must fully parse (it may alias the input,
// like the v2 mmap path does — that IS the measured design point).
type shootoutCodec struct {
	name   string
	encode func(*core.Bundle) ([]byte, error)
	decode func([]byte) error
}

// strawBundle is the stdlib strawmen's view of a recording: the same
// payload surface the wire formats serialize (logs, signatures, final
// state), minus the checkpoint sections the shootout workloads don't
// record. gob cannot encode the full Bundle — runtime-only fields reach
// types with no exported fields — and giving the strawmen a trimmed
// struct only flatters them.
type strawBundle struct {
	ProgramName         string
	Threads             int
	StackWordsPerThread uint64
	ChunkLogs           []*chunk.Log
	InputLog            *capo.InputLog
	SigLogs             [][]capo.SigPair
	CountRepIterations  bool
	Partial             bool
	MemChecksum         uint64
	Output              []byte
	FinalContexts       []isa.Context
	RetiredPerThread    []uint64
}

func strawView(b *core.Bundle) *strawBundle {
	return &strawBundle{
		ProgramName:         b.ProgramName,
		Threads:             b.Threads,
		StackWordsPerThread: b.StackWordsPerThread,
		ChunkLogs:           b.ChunkLogs,
		InputLog:            b.InputLog,
		SigLogs:             b.SigLogs,
		CountRepIterations:  b.CountRepIterations,
		Partial:             b.Partial,
		MemChecksum:         b.MemChecksum,
		Output:              b.Output,
		FinalContexts:       b.FinalContexts,
		RetiredPerThread:    b.RetiredPerThread,
	}
}

// shootoutCodecs builds the candidate list: the three bundle wire
// formats through the real encoder/decoder (the v1/v2 decoders reuse
// one BundleDecoder each, so they're measured on the steady-state
// zero-copy path), plus gob and JSON strawmen — the "just use the
// stdlib" baselines the custom format has to beat.
func shootoutCodecs() []shootoutCodec {
	formatCodec := func(name string, f core.Format) shootoutCodec {
		dec := &core.BundleDecoder{}
		return shootoutCodec{
			name: name,
			encode: func(b *core.Bundle) ([]byte, error) {
				saved := b.Format
				b.Format = f
				data := b.Marshal()
				b.Format = saved
				return data, nil
			},
			decode: func(data []byte) error {
				_, err := dec.Decode(data)
				return err
			},
		}
	}
	return []shootoutCodec{
		formatCodec("v1", core.FormatV1),
		formatCodec("v2-raw", core.FormatV2Raw),
		formatCodec("v2-lz", core.FormatV2LZ),
		{
			name: "gob",
			encode: func(b *core.Bundle) ([]byte, error) {
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(strawView(b)); err != nil {
					return nil, err
				}
				return buf.Bytes(), nil
			},
			decode: func(data []byte) error {
				var b strawBundle
				return gob.NewDecoder(bytes.NewReader(data)).Decode(&b)
			},
		},
		{
			name: "json",
			encode: func(b *core.Bundle) ([]byte, error) {
				return json.Marshal(strawView(b))
			},
			decode: func(data []byte) error {
				var b strawBundle
				return json.Unmarshal(data, &b)
			},
		},
	}
}

// MeasureShootout records the named workload once, then pushes the
// recording through every shootout codec runs times, keeping each
// codec's best encode and decode throughput. The bytes column is exact
// (codecs are deterministic); the throughput columns are best-of-runs
// like the rest of the bench harness.
func MeasureShootout(name string, threads, cores, runs int) ([]ShootoutResult, error) {
	prog, err := workload.ProgramByName(name, threads)
	if err != nil {
		return nil, err
	}
	cfg := recordConfig(cores, threads, 1)
	rec, err := core.Record(prog, cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: shootout recording of %s failed: %w", name, err)
	}
	var instrs uint64
	for _, r := range rec.RetiredPerThread {
		instrs += r
	}
	if runs < 1 {
		runs = 1
	}
	var out []ShootoutResult
	var v1Bytes uint64
	for _, c := range shootoutCodecs() {
		data, err := c.encode(rec)
		if err != nil {
			return nil, fmt.Errorf("harness: shootout %s encode failed: %w", c.name, err)
		}
		if err := c.decode(data); err != nil {
			return nil, fmt.Errorf("harness: shootout %s decode failed: %w", c.name, err)
		}
		r := ShootoutResult{
			Codec:          c.name,
			Workload:       name,
			Bytes:          uint64(len(data)),
			BytesPerKinstr: float64(len(data)) / (float64(instrs) / 1000),
		}
		mb := float64(len(data)) / (1 << 20)
		for i := 0; i < runs; i++ {
			start := time.Now()
			if _, err := c.encode(rec); err != nil {
				return nil, err
			}
			if tput := mb / time.Since(start).Seconds(); tput > r.EncodeMBps {
				r.EncodeMBps = tput
			}
			start = time.Now()
			if err := c.decode(data); err != nil {
				return nil, err
			}
			if tput := mb / time.Since(start).Seconds(); tput > r.DecodeMBps {
				r.DecodeMBps = tput
			}
		}
		if c.name == "v1" {
			v1Bytes = r.Bytes
		}
		r.RatioVsV1 = float64(v1Bytes) / float64(r.Bytes)
		out = append(out, r)
	}
	return out, nil
}
