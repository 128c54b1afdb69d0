// Command quickrecd is the recording-as-a-service ingest daemon: it
// accepts segmented log streams from fleets of concurrent recorders
// over TCP, each upload owned by its own session from HELLO to ACK and
// admitted only while one of a bounded number of upload slots is free,
// appends each upload to a content-addressed, crash-consistent pack,
// and verifies stored bundles in the background by salvage plus
// deterministic replay.
//
// Usage:
//
// The worker mode turns the daemon into a fleet compute node: it
// attaches to a serve instance's job broker and executes distributed
// replay and race-detection jobs against bundles fetched from the
// server's store.
//
//	quickrecd serve   -addr 127.0.0.1:7070 -store /var/lib/quickrec
//	quickrecd worker  -addr 127.0.0.1:7070 -slots 4
//	quickrecd loadgen -addr 127.0.0.1:7070 -w counter -uploaders 64 -uploads 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "serve":
		err = cmdServe(args)
	case "worker":
		err = cmdWorker(args)
	case "loadgen":
		err = cmdLoadgen(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickrecd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: quickrecd <serve|worker|loadgen> [flags]
  serve   -addr HOST:PORT -store DIR [-upload-slots N] [-credit BYTES]
          [-verifiers N] [-replay-workers N] [-max-upload BYTES] [-statsz SECS]
          [-job-timeout SECS]
                                   run the ingest server; SIGINT/SIGTERM drain and
                                   print the final /statsz report
  worker  -addr HOST:PORT [-slots N]
                                   attach to a server's job broker as a fleet
                                   compute node and execute distributed replay and
                                   race-detection jobs until the server goes away
  loadgen -addr HOST:PORT -w NAME[,NAME...] [-threads N] [-uploaders N]
          [-uploads N] [-tenants N] [-torn-every N] [-attempts N]
                                   record the named workloads locally, then replay
                                   them as N concurrent uploaders against a server`)
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	cfg := ingest.DefaultConfig()
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	store := fs.String("store", "", "bundle store directory: one append-only pack, objects.qpack (a directory holding an old objects/ tree is refused)")
	slots := fs.Int("upload-slots", cfg.UploadSlots, "uploads open at once; a HELLO that finds none free is shed (overload bound)")
	credit := fs.Int("credit", cfg.Credit, "per-session in-flight byte credit")
	verifiers := fs.Int("verifiers", cfg.Verifiers, "background verifier workers")
	replayW := fs.Int("replay-workers", cfg.ReplayWorkers, "parallel-replay workers per verification (0 serial, -1 all CPUs)")
	maxUpload := fs.Int("max-upload", cfg.MaxUploadBytes, "per-upload size cap in bytes")
	statsz := fs.Int("statsz", 0, "print the /statsz report every N seconds (0 = only at exit)")
	jobTimeout := fs.Int("job-timeout", 0, "fleet job straggler deadline in seconds (0 = default)")
	fs.Parse(args)
	if *store == "" {
		return fmt.Errorf("serve needs -store DIR")
	}
	cfg.Addr = *addr
	cfg.StoreDir = *store
	cfg.UploadSlots = *slots
	cfg.Credit = *credit
	cfg.Verifiers = *verifiers
	cfg.ReplayWorkers = *replayW
	cfg.MaxUploadBytes = *maxUpload
	cfg.JobTimeout = time.Duration(*jobTimeout) * time.Second

	s, err := ingest.NewServer(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("quickrecd: listening on %s, store %s, %d upload slots, %d verifiers\n",
		s.Addr(), *store, *slots, *verifiers)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if *statsz > 0 {
		go func() {
			tick := time.NewTicker(time.Duration(*statsz) * time.Second)
			defer tick.Stop()
			for range tick.C {
				fmt.Print(s.Statsz())
			}
		}()
	}
	go func() {
		<-stop
		fmt.Println("quickrecd: draining")
		s.Close()
	}()
	// The accept loop always exits with an error; after a signal-driven
	// Close that is the expected shutdown path, not a fault.
	s.Serve()
	s.WaitIdle()
	fmt.Print(s.Statsz())
	return nil
}

func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	addr := fs.String("addr", "", "fleet server to attach to")
	slots := fs.Int("slots", runtime.GOMAXPROCS(0), "jobs executed concurrently")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("worker needs -addr")
	}
	fmt.Printf("quickrecd: worker attached to %s, %d slots\n", *addr, *slots)
	// Run returns when the server connection drops; a remote hangup is
	// the normal end of a worker's life (server drained), not a fault
	// worth a non-zero exit.
	err := (&fleet.Worker{Addr: *addr, Slots: *slots}).Run()
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return err
	}
	fmt.Println("quickrecd: worker detached")
	return nil
}

func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "", "target ingest server")
	names := fs.String("w", "counter", "comma-separated workload names to record and upload")
	threads := fs.Int("threads", 4, "thread count per recorded workload")
	uploaders := fs.Int("uploaders", 64, "concurrent uploader goroutines")
	uploads := fs.Int("uploads", 2, "uploads per uploader")
	tenants := fs.Int("tenants", 8, "distinct tenant IDs")
	tornEvery := fs.Int("torn-every", 0, "sever every N-th session mid-upload (0 = never)")
	attempts := fs.Int("attempts", 5, "attempts per upload when shed")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("loadgen needs -addr")
	}

	var streams [][]byte
	var seed uint64 = 1
	for _, name := range splitComma(*names) {
		if _, ok := workload.ByName(name); !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		data, err := ingest.RecordWorkloadStream(name, *threads, seed)
		if err != nil {
			return err
		}
		streams = append(streams, data)
		seed++
	}
	tenantIDs := make([]string, *tenants)
	for i := range tenantIDs {
		tenantIDs[i] = fmt.Sprintf("sphere-%d", i)
	}

	res, err := ingest.Loadgen(ingest.LoadgenConfig{
		Addr:       *addr,
		Uploaders:  *uploaders,
		UploadsPer: *uploads,
		Tenants:    tenantIDs,
		Streams:    streams,
		Attempts:   *attempts,
		Backoff:    50 * time.Millisecond,
		TornEvery:  *tornEvery,
	})
	if err != nil {
		return err
	}
	mbps := float64(res.Bytes) / (1 << 20) / res.Elapsed.Seconds()
	fmt.Printf("loadgen: %d uploads (%d dup, %d torn, %d retries, %d failures), %d bytes in %v (%.1f MiB/s), %d distinct bundles\n",
		res.Uploads, res.Duplicates, res.Torn, res.Retries, res.Failures,
		res.Bytes, res.Elapsed.Round(time.Millisecond), mbps, len(res.Digests))
	if res.Failures > 0 {
		return fmt.Errorf("%d uploads failed", res.Failures)
	}
	return nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
