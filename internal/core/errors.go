package core

import (
	"errors"
	"fmt"
)

// Sentinel errors returned by the runtime. They are part of the public
// contract: callers match them with errors.Is.
var (
	// ErrWriteInSnapshot is returned when a snapshot transaction attempts
	// a Store. Snapshot transactions are read-only by construction.
	ErrWriteInSnapshot = errors.New("store inside a snapshot transaction")

	// ErrRetryLimit is returned by Atomically when the transaction aborted
	// more times than the configured retry limit allows.
	ErrRetryLimit = errors.New("transaction retry limit exceeded")
)

// AbortReason classifies why a transaction attempt aborted. The runtime
// retries aborted attempts automatically; reasons surface in Stats and in
// the benchmark harness, where they explain, e.g., why classic size
// operations stop scaling (the paper's section 4.3).
type AbortReason int

const (
	// AbortReadInvalid: a classic read observed a version newer than the
	// transaction's read version (stale snapshot), or a sampled cell
	// changed under the reader.
	AbortReadInvalid AbortReason = iota + 1

	// AbortWindowInvalid: an elastic transaction found one of its window
	// entries modified, so no consistent cut exists.
	AbortWindowInvalid

	// AbortValidation: commit-time read-set validation failed.
	AbortValidation

	// AbortLockContention: the contention manager told the transaction to
	// abort itself while acquiring commit locks or waiting on a reader.
	AbortLockContention

	// AbortKilled: another transaction's contention manager killed us.
	AbortKilled

	// AbortSnapshotTooOld: a snapshot read found no version old enough;
	// updaters keep finitely many versions (two by default).
	AbortSnapshotTooOld

	// AbortSemantics: an operation is illegal under the transaction's
	// semantics (e.g. a write inside a snapshot transaction).
	AbortSemantics

	// AbortExplicit: user code called Tx.Abort.
	AbortExplicit
)

// String names the reason for stats output.
func (r AbortReason) String() string {
	switch r {
	case AbortReadInvalid:
		return "read-invalid"
	case AbortWindowInvalid:
		return "window-invalid"
	case AbortValidation:
		return "validation"
	case AbortLockContention:
		return "lock-contention"
	case AbortKilled:
		return "killed"
	case AbortSnapshotTooOld:
		return "snapshot-too-old"
	case AbortSemantics:
		return "semantics"
	case AbortExplicit:
		return "explicit"
	default:
		return "unknown"
	}
}

// abortSignal is the private control-flow value used to unwind user code
// when an attempt must be retried. It never escapes the package: Atomically
// recovers it and retries. Using panic/recover for the unwind is the
// standard Go STM idiom; it is not error handling across an API boundary —
// the user-visible contract is "the closure reruns until it commits".
type abortSignal struct {
	reason AbortReason
}

// permanentError aborts the attempt and stops retrying, carrying err to the
// Atomically caller. It is used for semantics violations, where retrying
// would loop forever re-hitting the same illegal operation.
type permanentError struct {
	err error
}

func (e permanentError) Error() string { return e.err.Error() }

func (e permanentError) Unwrap() error { return e.err }

// SemanticsError reports an operation that is illegal under a transaction's
// semantics. Callers can match it with errors.As.
type SemanticsError struct {
	Sem Semantics
	Op  string
}

// Error implements error.
func (e *SemanticsError) Error() string {
	return fmt.Sprintf("operation %s not allowed in %s transaction", e.Op, e.Sem)
}

// Is allows errors.Is(err, ErrWriteInSnapshot) to match store violations.
func (e *SemanticsError) Is(target error) bool {
	return target == ErrWriteInSnapshot && e.Sem == Snapshot && e.Op == "store"
}
