package ingest

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/wire"
)

// Payload selectors for FuzzJobFrame's first fuzz argument.
const (
	fuzzAttach = iota
	fuzzJob
	fuzzResult
	fuzzFetch
	fuzzDataZ
	fuzzDispatchJob
	fuzzKinds
)

// FuzzJobFrame throws arbitrary bytes at every v3 payload codec — the
// fleet job plane (ATTACH/JOB/RESULT/FETCH), the compressed data plane
// (DATAZ), and the dispatch job envelope that rides inside JOB bodies.
// Invariants: no panic, malformed input yields a typed error, and any
// payload that decodes survives an encode→decode round trip with its
// values intact.
func FuzzJobFrame(f *testing.F) {
	seed := func(sel byte, build func(a *wire.Appender)) {
		var a wire.Appender
		build(&a)
		f.Add(sel, a.Buf)
	}
	seed(fuzzAttach, func(a *wire.Appender) {
		appendAttach(a, attachPayload{Version: 3, Role: roleWorker, Slots: 4})
	})
	seed(fuzzAttach, func(a *wire.Appender) {
		appendAttach(a, attachPayload{Version: 3, Role: roleSubmitter})
	})
	seed(fuzzJob, func(a *wire.Appender) {
		appendJobFrame(a, jobPayload{ID: 7, Body: []byte("job-body")})
	})
	seed(fuzzResult, func(a *wire.Appender) {
		appendResult(a, resultPayload{ID: 7, Last: true, Err: "boom", Data: []byte("result")})
	})
	seed(fuzzResult, func(a *wire.Appender) {
		appendResult(a, resultPayload{ID: 9, Data: bytes.Repeat([]byte("x"), 64)})
	})
	seed(fuzzFetch, func(a *wire.Appender) {
		appendFetch(a, fetchPayload{Digest: strings.Repeat("ab", digestSize)})
	})
	seed(fuzzDataZ, func(a *wire.Appender) {
		appendDataZ(a, bytes.Repeat([]byte("stream bytes "), 100))
	})
	seed(fuzzDataZ, func(a *wire.Appender) { appendDataZ(a, []byte("incompressible?")) })
	seed(fuzzDispatchJob, func(a *wire.Appender) {
		dispatch.AppendJob(a, dispatch.Job{
			Kind: dispatch.JobReplayInterval, Digest: strings.Repeat("cd", digestSize),
			Payload: []byte("interval params"),
		})
	})
	// Hostile shapes: truncated varints, a CRC over nothing, huge lengths.
	f.Add(byte(fuzzJob), []byte{0xff})
	f.Add(byte(fuzzDataZ), []byte{1, 2, 3})
	f.Add(byte(fuzzResult), []byte{0, 2})
	f.Add(byte(fuzzDispatchJob), []byte{1, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		checkErr := func(err error) bool {
			if err == nil {
				return false
			}
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("malformed payload gave an untyped error: %v", err)
			}
			return true
		}
		switch sel % fuzzKinds {
		case fuzzAttach:
			at, err := decodeAttach(data)
			if checkErr(err) {
				return
			}
			var a wire.Appender
			appendAttach(&a, at)
			if got, err := decodeAttach(a.Buf); err != nil || got != at {
				t.Fatalf("attach round trip: %+v, %v", got, err)
			}
		case fuzzJob:
			j, err := decodeJobFrame(data)
			if checkErr(err) {
				return
			}
			var a wire.Appender
			appendJobFrame(&a, j)
			if got, err := decodeJobFrame(a.Buf); err != nil || got.ID != j.ID || !bytes.Equal(got.Body, j.Body) {
				t.Fatalf("job round trip: %+v, %v", got, err)
			}
		case fuzzResult:
			r, err := decodeResult(data)
			if checkErr(err) {
				return
			}
			var a wire.Appender
			appendResult(&a, r)
			got, err := decodeResult(a.Buf)
			if err != nil || got.ID != r.ID || got.Last != r.Last || got.Err != r.Err || !bytes.Equal(got.Data, r.Data) {
				t.Fatalf("result round trip: %+v, %v", got, err)
			}
		case fuzzFetch:
			fp, err := decodeFetch(data)
			if checkErr(err) {
				return
			}
			var a wire.Appender
			appendFetch(&a, fp)
			if got, err := decodeFetch(a.Buf); err != nil || got != fp {
				t.Fatalf("fetch round trip: %+v, %v", got, err)
			}
		case fuzzDataZ:
			raw, err := decodeDataZ(nil, data, DefaultConfig().Credit)
			if checkErr(err) {
				return
			}
			var a wire.Appender
			appendDataZ(&a, raw)
			if got, err := decodeDataZ(nil, a.Buf, DefaultConfig().Credit); err != nil || !bytes.Equal(got, raw) {
				t.Fatalf("dataz round trip: %d bytes, %v", len(got), err)
			}
		case fuzzDispatchJob:
			j, err := dispatch.DecodeJob(data)
			if err != nil {
				return // dispatch owns its error vocabulary
			}
			var a wire.Appender
			dispatch.AppendJob(&a, j)
			got, err := dispatch.DecodeJob(a.Buf)
			if err != nil || got.Kind != j.Kind || got.Digest != j.Digest || !bytes.Equal(got.Payload, j.Payload) {
				t.Fatalf("dispatch job round trip: %+v, %v", got, err)
			}
		}
	})
}
