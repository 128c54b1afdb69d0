package ingest

import (
	"crypto/sha256"
	"testing"
	"time"
)

// TestVerifierTakesJobsOneAtATime pins that a queued upload waits only
// for a free verifier. With two verifiers, job a blocks mid-verify; b
// and c are queued behind it. c can start only on the verifier that ran
// b, after b's verdict is published, so both must start while a is
// still blocked. A pool that verifies its queue in batches holds b and
// c until a ends.
func TestVerifierTakesJobsOneAtATime(t *testing.T) {
	board := newVerdictBoard()
	started := make(chan string, 3)
	release := make(chan struct{})
	p := newVerifierPool(2, board, func(j verifyJob) Verdict {
		started <- j.digest
		if j.digest == "a" {
			<-release
		}
		return Verdict{Tenant: j.tenant, Digest: j.digest, Status: StatusAccepted}
	})
	defer p.close()
	defer close(release)

	p.enqueue(verifyJob{tenant: "t", digest: "a"})
	if d := <-started; d != "a" {
		t.Fatalf("first verify was of %q, want a", d)
	}
	p.enqueue(verifyJob{tenant: "t", digest: "b"})
	p.enqueue(verifyJob{tenant: "t", digest: "c"})
	for _, want := range []string{"b", "c"} {
		select {
		case d := <-started:
			if d != want {
				t.Fatalf("verify of %q started, want %q", d, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s waited behind the blocked job a", want)
		}
	}
	if _, ok := board.lookup("t", "b"); !ok {
		t.Fatal("b's verdict did not publish while a was blocked")
	}
	if _, ok := board.lookup("t", "a"); ok {
		t.Fatal("a's verdict published while a was blocked")
	}
}

// TestVerifierReadsStoredObject pins that a verify job carries only a
// name: the verifier reads the object from the store when it takes the
// job, and an object it cannot read gets an unverifiable verdict.
func TestVerifierReadsStoredObject(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	missing := hexDigest(sha256.Sum256([]byte("never stored")))
	v := verifyBundle(st, verifyJob{tenant: "t", digest: missing}, 0)
	if v.Status != StatusUnverifiable || v.Tenant != "t" || v.Digest != missing || v.Detail == "" {
		t.Fatalf("verdict for an unreadable object: %+v, want unverifiable with a cause", v)
	}
}
