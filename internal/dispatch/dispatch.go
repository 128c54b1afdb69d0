// Package dispatch is the one parallel-execution layer every fan-out
// path in the system rides: interval replay, race screening and
// confirmation, and concurrent-pair enumeration all describe their work
// as an index-addressed Spec and hand it to an Executor. Work is always index-based — a task count plus
// functions of the task index — and results are collected into
// pre-sized slices, so output order is fixed by index, never by
// goroutine (or remote worker) completion order. That convention is
// what makes serial, local-parallel, and distributed runs bit-identical
// by construction: the merge is a function of the task list, and the
// task list is a pure function of the input.
//
// A Spec optionally carries a remote form of each task: Job(i) encodes
// the task as a wire envelope referencing a content-addressed bundle,
// and Absorb(i, result) merges the remote result payload into slot i.
// Two fan-outs carry it, interval replay and the race detector's traced
// intervals; the rest run on a Local executor only. Local executors
// ignore the remote form and call Run; the fleet executor
// (internal/fleet) ignores Run and ships the envelopes.
//
// Error selection is deterministic everywhere: when tasks fail, the
// executor returns the error of the lowest-indexed failing task, and it
// guarantees every task below that index was run — so the reported
// error is the one a serial execution would have hit first. Early stop
// rides the same rule: once some task has failed, tasks above the
// lowest failing index may be skipped (they cannot affect the outcome),
// which is the cancellation half of the contract.
package dispatch

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a caller-facing worker count, the convention every
// Workers knob in this codebase shares: 0 and 1 select serial execution
// (the zero value changes nothing), values above 1 are honored as-is,
// and negative values select runtime.GOMAXPROCS(0).
func Resolve(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n == 0 {
		return 1
	}
	return n
}

// Spec describes one fan-out: Tasks independent units addressed by
// index, merged by index. Run executes task i in-process. Job and
// Absorb, when non-nil, are the remote form: Job(i) encodes task i as a
// self-contained envelope and Absorb(i, result) merges the raw result
// payload a remote worker produced for it. Local executors require Run;
// remote executors require Job and Absorb.
type Spec struct {
	// Tasks is the number of independent work items.
	Tasks int
	// Run executes task i on the calling executor's goroutines. It must
	// confine its writes to per-index state; the executor provides the
	// happens-before edge between every Run call and Execute's return.
	Run func(i int) error
	// Job encodes task i as a wire envelope for a remote worker. nil
	// marks the spec local-only.
	Job func(i int) (Job, error)
	// Absorb merges the result payload a remote worker returned for task
	// i. Called at most once per index, possibly concurrently with other
	// indices' Absorb calls.
	Absorb func(i int, result []byte) error
}

// Executor runs a Spec to completion. Implementations must honor the
// deterministic earliest-error contract: if any task fails, Execute
// returns the lowest-indexed task's error and has run (or absorbed)
// every task below that index.
type Executor interface {
	// Name identifies the backend ("local", "fleet") for
	// reports and errors.
	Name() string
	Execute(s Spec) error
}

// ErrNotRemotable reports a local-only Spec (no Job/Absorb encoding)
// handed to a remote executor.
var ErrNotRemotable = errors.New("dispatch: spec has no job encoding; it can only run on a local executor")

// earliestError tracks the minimum failing task index across workers.
type earliestError struct {
	idx  atomic.Int64 // lowest failing index; == tasks when none failed
	errs []error
}

func newEarliestError(tasks int) *earliestError {
	e := &earliestError{errs: make([]error, tasks)}
	e.idx.Store(int64(tasks))
	return e
}

// record notes task i's failure, keeping the minimum index.
func (e *earliestError) record(i int, err error) {
	e.errs[i] = err
	for {
		cur := e.idx.Load()
		if int64(i) >= cur || e.idx.CompareAndSwap(cur, int64(i)) {
			return
		}
	}
}

// stopAt returns the current lowest failing index: tasks above it may
// be skipped (they cannot become the reported error).
func (e *earliestError) stopAt() int64 { return e.idx.Load() }

// err returns the earliest error, or nil.
func (e *earliestError) err() error {
	if i := e.idx.Load(); int(i) < len(e.errs) {
		return e.errs[i]
	}
	return nil
}

// Local fans tasks out over at most Resolve(Workers) goroutines with an
// atomic next-index cursor. With one worker (or one task) the calls run
// inline on the caller's goroutine in index order, stopping at the first
// error, so the serial path has no scheduling nondeterminism at all.
type Local struct {
	// Workers follows the Resolve convention: 0/1 serial, negative
	// GOMAXPROCS.
	Workers int
}

// Name implements Executor.
func (Local) Name() string { return "local" }

// Execute implements Executor.
func (l Local) Execute(s Spec) error {
	if s.Tasks <= 0 {
		return nil
	}
	if s.Run == nil {
		return fmt.Errorf("dispatch: local executor needs Spec.Run")
	}
	workers := Resolve(l.Workers)
	if workers > s.Tasks {
		workers = s.Tasks
	}
	ee := newEarliestError(s.Tasks)
	if workers <= 1 {
		for i := 0; i < s.Tasks; i++ {
			if err := s.Run(i); err != nil {
				ee.record(i, err)
				break // tasks above the failing index cannot matter
			}
		}
		return ee.err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= s.Tasks {
					return
				}
				// Early stop: indices above the lowest failure are dead work.
				// stopAt only decreases and only ever holds failing indices,
				// so every index at or below the final minimum still runs.
				if int64(i) > ee.stopAt() {
					return
				}
				if err := s.Run(i); err != nil {
					ee.record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	return ee.err()
}
