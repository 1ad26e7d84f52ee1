// Package errors is the stable error surface of the rfview engine: every
// failure a caller may want to branch on carries a Code, and each code has a
// sentinel value usable with the standard library's errors.Is. The server
// protocol transports the code in a dedicated field, and the client maps it
// back to the same sentinels — so
//
//	errors.Is(err, rferrors.ErrStaleView)
//
// holds whether the engine was called in-process or across the wire.
//
// Import with an alias to avoid shadowing the standard library:
//
//	import rferrors "rfview/errors"
package errors

import (
	"context"
	"errors"
	"fmt"
)

// Code is a stable, machine-readable error class. Codes are lowercase
// identifiers so they can travel through the JSON protocol unchanged.
type Code string

// The error codes of the engine.
const (
	// CodeOK is the zero code: no error.
	CodeOK Code = ""
	// CodeParse marks SQL that failed to parse.
	CodeParse Code = "parse"
	// CodeUnknownTable marks references to tables that do not exist.
	CodeUnknownTable Code = "unknown_table"
	// CodeUnknownView marks references to materialized views that do not
	// exist.
	CodeUnknownView Code = "unknown_view"
	// CodeStaleView marks queries refused because a required materialized
	// view is stale and needs REFRESH MATERIALIZED VIEW.
	CodeStaleView Code = "stale_view"
	// CodeNotDerivable marks derivation requests (§3–§5) that no algorithm
	// can answer from the materialized sequence.
	CodeNotDerivable Code = "not_derivable"
	// CodeCancelled marks statements abandoned because the caller's context
	// was cancelled or its deadline expired.
	CodeCancelled Code = "cancelled"
	// CodeUnsupported marks statements the engine recognizes but does not
	// implement.
	CodeUnsupported Code = "unsupported"
	// CodeConflict marks write-write conflicts under snapshot isolation:
	// the statement tried to modify a row version another transaction has
	// already updated or deleted (first-committer-wins). The transaction is
	// rolled back; clients can safely retry it from the top.
	CodeConflict Code = "conflict"
	// CodeTxnState marks transaction-control misuse: COMMIT or ROLLBACK
	// outside a transaction, BEGIN inside one, or a statement kind that is
	// not allowed inside an explicit transaction (DDL, REFRESH).
	CodeTxnState Code = "txn_state"
	// CodeBadRequest marks wire requests the server could not read: a line
	// that is not a JSON request object, or one over the line-length limit.
	CodeBadRequest Code = "bad_request"
	// CodeInternal is the catch-all for errors without a more specific class.
	CodeInternal Code = "internal"
)

// Error is a code-carrying error. It may wrap a cause, and two Errors match
// under errors.Is when their codes are equal — which is what makes the
// sentinels below work across wrapping layers and the wire protocol.
type Error struct {
	Code  Code
	Msg   string
	Cause error
}

// Error implements the error interface.
func (e *Error) Error() string {
	switch {
	case e.Msg != "" && e.Cause != nil:
		return e.Msg + ": " + e.Cause.Error()
	case e.Cause != nil:
		return e.Cause.Error()
	default:
		return e.Msg
	}
}

// Unwrap exposes the cause to the errors package.
func (e *Error) Unwrap() error { return e.Cause }

// Is matches any *Error with the same code, so sentinel comparisons work no
// matter how many layers of wrapping sit between the failure and the caller.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// Sentinels, one per code, for errors.Is branching.
var (
	ErrParse        = &Error{Code: CodeParse, Msg: "parse error"}
	ErrUnknownTable = &Error{Code: CodeUnknownTable, Msg: "unknown table"}
	ErrUnknownView  = &Error{Code: CodeUnknownView, Msg: "unknown materialized view"}
	ErrStaleView    = &Error{Code: CodeStaleView, Msg: "stale materialized view"}
	ErrNotDerivable = &Error{Code: CodeNotDerivable, Msg: "not derivable"}
	ErrCancelled    = &Error{Code: CodeCancelled, Msg: "statement cancelled"}
	ErrUnsupported  = &Error{Code: CodeUnsupported, Msg: "unsupported"}
	ErrConflict     = &Error{Code: CodeConflict, Msg: "write-write conflict"}
	ErrTxnState     = &Error{Code: CodeTxnState, Msg: "invalid transaction state"}
	ErrBadRequest   = &Error{Code: CodeBadRequest, Msg: "bad request"}
)

// New builds a coded error from a format string.
func New(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Wrap attaches a code to an existing error, keeping it reachable through
// errors.Is / errors.As. Wrapping nil returns nil.
func Wrap(code Code, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Code: code, Cause: err}
}

// Wrapf is Wrap with a message prefix.
func Wrapf(code Code, err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...), Cause: err}
}

// CodeOf classifies any error: coded errors report their code, bare context
// cancellations map to CodeCancelled, nil maps to CodeOK, and everything else
// is CodeInternal.
func CodeOf(err error) Code {
	if err == nil {
		return CodeOK
	}
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return CodeCancelled
	}
	return CodeInternal
}

// FromCode reconstructs a coded error from its wire form (code + message).
// The client uses it so server-side failures satisfy the same errors.Is
// checks as in-process ones. An empty or unknown code yields CodeInternal.
func FromCode(code Code, msg string) error {
	switch code {
	case CodeParse, CodeUnknownTable, CodeUnknownView, CodeStaleView,
		CodeNotDerivable, CodeCancelled, CodeUnsupported, CodeConflict,
		CodeTxnState, CodeBadRequest:
		return &Error{Code: code, Msg: msg}
	default:
		return &Error{Code: CodeInternal, Msg: msg}
	}
}
