package ingest

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestBrokerRejectsUndispatchedResult is the regression test for a
// worker completing a job it was never sent. A 1-slot worker holding
// the first job sends a RESULT under the ID of the second, still
// queued: the broker must end that worker's session, count it rejected
// and requeue its job, so the submitter receives only an honest
// worker's results.
func TestBrokerRejectsUndispatchedResult(t *testing.T) {
	s := startServer(t, nil)
	sub, err := DialSubmitter(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	jobs := map[uint64]string{10: "job-a", 20: "job-b"}
	for _, id := range []uint64{10, 20} {
		if err := sub.Submit(id, []byte(jobs[id])); err != nil {
			t.Fatal(err)
		}
	}

	forger, err := DialWorker(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer forger.Close()
	id, body, err := forger.NextJob()
	if err != nil || string(body) != "job-a" {
		t.Fatalf("forger's job: %q, %v", body, err)
	}
	// Broker IDs count up in submission order, so id+1 is job-b's.
	if err := forger.SendResult(id+1, []byte("forged"), ""); err != nil {
		t.Fatal(err)
	}

	type result struct {
		id   uint64
		data string
		err  error
	}
	results := make(chan result, 2)
	go func() {
		for range 2 {
			id, data, _, err := sub.Next()
			results <- result{id, string(data), err}
			if err != nil {
				return
			}
		}
	}()
	ended := make(chan error, 1)
	go func() {
		_, _, err := forger.NextJob()
		ended <- err
	}()
	select {
	case r := <-results:
		t.Fatalf("submitter received job %d = %q (%v) before an honest worker attached", r.id, r.data, r.err)
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("the forging worker's session was not ended")
	}
	if n := s.Counters().Rejected; n != 1 {
		t.Errorf("%d sessions rejected, want the forger's 1", n)
	}

	honest, err := DialWorker(s.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()
	go func() {
		for {
			id, body, err := honest.NextJob()
			if err != nil {
				return
			}
			honest.SendResult(id, append([]byte("ok:"), body...), "")
		}
	}()
	for range 2 {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if want := "ok:" + jobs[r.id]; r.data != want {
			t.Errorf("job %d: got %q, want %q", r.id, r.data, want)
		}
		delete(jobs, r.id)
	}
}

// TestBrokerRedispatchSkipsHolder is the regression test for a
// straggler's job coming back to the worker that still holds it. A
// 2-slot worker holds a job past the job timeout, so the job is requeued
// while that worker has a free slot: the worker must not be sent the job
// again, must stay attached, and the submitter must receive exactly one
// intact result.
func TestBrokerRedispatchSkipsHolder(t *testing.T) {
	const timeout = 50 * time.Millisecond
	s := startServer(t, func(c *Config) { c.JobTimeout = timeout })
	sub, err := DialSubmitter(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	w, err := DialWorker(s.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Four RESULT chunks, so two answers sent at once would interleave.
	big := bytes.Repeat([]byte("quickrec"), 3*resultChunkSize/8+5)
	dispatched := make(chan uint64, 8)
	go func() {
		for {
			id, body, err := w.NextJob()
			if err != nil {
				return
			}
			dispatched <- id
			go func() {
				if string(body) == "fast" {
					w.SendResult(id, []byte("ok"), "")
					return
				}
				time.Sleep(8 * timeout)
				w.SendResult(id, big, "")
			}()
		}
	}()

	next := func(wantID uint64, want []byte) {
		t.Helper()
		id, data, _, err := sub.Next()
		if err != nil {
			t.Fatal(err)
		}
		if id != wantID || !bytes.Equal(data, want) {
			t.Fatalf("got job %d with %d bytes, want job %d with %d bytes", id, len(data), wantID, len(want))
		}
	}
	if err := sub.Submit(1, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	next(1, big)
	if n := len(dispatched); n != 1 {
		t.Fatalf("the slow job was dispatched %d times to the worker holding it", n)
	}
	// The worker is still attached: a second job reaches it, and its
	// answer is the submitter's next result.
	if err := sub.Submit(2, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	next(2, []byte("ok"))
	if n := s.Counters().Rejected; n != 0 {
		t.Errorf("%d sessions rejected, want 0", n)
	}
}

// TestBrokerSubmitWakesFreeWorker is the regression test for a lost
// wakeup: a submitted job woke one waiting feeder, and when that was
// the feeder of a worker with no free slot, a free worker slept on with
// the job pending.
func TestBrokerSubmitWakesFreeWorker(t *testing.T) {
	s := startServer(t, nil)
	sub, err := DialSubmitter(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	full, err := DialWorker(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if err := sub.Submit(1, []byte("held")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := full.NextJob(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // full's feeder waits first, for a slot
	free, err := DialWorker(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer free.Close()
	time.Sleep(50 * time.Millisecond) // then free's, for a job
	if err := sub.Submit(2, []byte("next")); err != nil {
		t.Fatal(err)
	}
	fed := make(chan error, 1)
	go func() {
		_, body, err := free.NextJob()
		if err == nil && string(body) != "next" {
			err = fmt.Errorf("fed %q", body)
		}
		fed <- err
	}()
	select {
	case err := <-fed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the free worker was not fed the pending job")
	}
}
