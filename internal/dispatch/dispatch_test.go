package dispatch

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
)

func TestResolve(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {7, 7},
		{-1, runtime.GOMAXPROCS(0)}, {-100, runtime.GOMAXPROCS(0)},
	}
	for _, c := range cases {
		if got := Resolve(c.in); got != c.want {
			t.Errorf("Resolve(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestLocalCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, tasks := range []int{0, 1, 3, 100} {
			counts := make([]int32, tasks)
			err := Local{Workers: workers}.Execute(Spec{
				Tasks: tasks,
				Run: func(i int) error {
					atomic.AddInt32(&counts[i], 1)
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range counts {
				if n != 1 {
					t.Errorf("workers=%d tasks=%d: index %d ran %d times", workers, tasks, i, n)
				}
			}
		}
	}
}

func TestSerialRunsInOrder(t *testing.T) {
	var order []int
	err := Local{Workers: 1}.Execute(Spec{
		Tasks: 5,
		Run:   func(i int) error { order = append(order, i); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial execution out of order: %v", order)
		}
	}
}

// TestEarliestErrorDeterministic pins the error contract: whatever the
// worker count and completion order, Execute returns the lowest-indexed
// failure, and every task below that index was run.
func TestEarliestErrorDeterministic(t *testing.T) {
	failAt := map[int]bool{3: true, 7: true, 40: true}
	for _, workers := range []int{1, 2, 4, 16} {
		var ran [64]atomic.Bool
		err := Local{Workers: workers}.Execute(Spec{
			Tasks: 64,
			Run: func(i int) error {
				ran[i].Store(true)
				if failAt[i] {
					return fmt.Errorf("task %d failed", i)
				}
				return nil
			},
		})
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("workers=%d: got error %v, want task 3's", workers, err)
		}
		for i := 0; i <= 3; i++ {
			if !ran[i].Load() {
				t.Fatalf("workers=%d: task %d below the earliest failure never ran", workers, i)
			}
		}
	}
}

// TestSerialEarlyStops pins early stop on the serial path: nothing past
// the first failure runs.
func TestSerialEarlyStops(t *testing.T) {
	var ran []int
	err := Local{Workers: 1}.Execute(Spec{
		Tasks: 10,
		Run: func(i int) error {
			ran = append(ran, i)
			if i == 4 {
				return errors.New("boom")
			}
			return nil
		},
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("got %v", err)
	}
	if len(ran) != 5 {
		t.Fatalf("serial ran %v after the failure", ran)
	}
}

func TestJobRoundTrip(t *testing.T) {
	jobs := []Job{
		{Kind: JobReplayInterval, Digest: "ab12", Payload: []byte{1, 2, 3}},
		{Kind: JobReplayInterval, Digest: "ff", Payload: nil},
		{Kind: JobTraceInterval, Digest: "0123456789abcdef", Payload: []byte("params")},
	}
	for _, j := range jobs {
		a := wire.GetAppender()
		AppendJob(a, j)
		got, err := DecodeJob(a.Buf)
		if err != nil {
			t.Fatalf("%+v: %v", j, err)
		}
		if got.Kind != j.Kind || got.Digest != j.Digest || string(got.Payload) != string(j.Payload) {
			t.Fatalf("round trip %+v -> %+v", j, got)
		}
		wire.PutAppender(a)
	}
}

func TestDecodeJobRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{0},                 // kind 0
		{9, 0, 0},           // unknown kind
		{2, 2, 'f', 'f', 0}, // the retired screen-block kind, well formed otherwise
		{1},                 // missing digest
		{1, 2, 'a'},         // digest blob truncated
		{1, 1, 'a', 5, 'x'}, // payload blob truncated
	}
	for _, data := range bad {
		if _, err := DecodeJob(data); err == nil {
			t.Errorf("DecodeJob(%v) accepted garbage", data)
		}
	}
}
