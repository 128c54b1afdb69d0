package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestWorkerLoadRetriesAfterFailure is the regression test for a worker
// caching a failed load forever: a digest requested before its bundle is
// uploaded fails to fetch, and once the bundle is stored the next load
// of the same digest must fetch it again and succeed.
func TestWorkerLoadRetriesAfterFailure(t *testing.T) {
	cfg := ingest.DefaultConfig()
	cfg.StoreDir = t.TempDir()
	srv, err := ingest.NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })

	mcfg := machine.DefaultConfig()
	mcfg.Threads = 2
	rec, err := core.Record(workload.Counter(50, 2), mcfg)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	data := rec.Marshal()
	sum := sha256.Sum256(data)
	digest := hex.EncodeToString(sum[:])

	w := &Worker{Addr: srv.Addr()}
	if e := w.load(digest); e.err == nil {
		t.Fatal("load of a digest not yet uploaded succeeded")
	}
	got, _, _, err := ingest.Upload(srv.Addr(), ingest.FleetTenant, data, 3, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if got != digest {
		t.Fatalf("server digest %s, want %s", got, digest)
	}
	e := w.load(digest)
	if e.err != nil {
		t.Fatalf("load after upload still fails: %v", e.err)
	}
	if e.jobber == nil || e.tracer == nil {
		t.Fatalf("load after upload materialized %+v", e)
	}
}
