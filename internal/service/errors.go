package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// The v1 error envelope: every non-2xx reply is
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": N?}}
//
// with a stable machine-readable code. Clients branch on the code (and
// the HTTP status); the message is diagnostic text and free to change.
const (
	// CodeBadRequest: the request is malformed or out of the server's
	// configured bounds (HTTP 400).
	CodeBadRequest = "bad_request"
	// CodeNotFound: the addressed resource does not exist — e.g. the
	// artifact store is disabled, or no warm pack is mounted (HTTP 404).
	CodeNotFound = "not_found"
	// CodeOverloaded: the worker pool or batch queue shed the request;
	// retry after RetryAfterMs (HTTP 503).
	CodeOverloaded = "overloaded"
	// CodeTimeout: the job deadline fired before the computation finished
	// (HTTP 504).
	CodeTimeout = "timeout"
	// CodeCanceled: the client went away mid-request (HTTP 499).
	CodeCanceled = "canceled"
	// CodeInternal: everything else (HTTP 500).
	CodeInternal = "internal"
)

// apiError carries an HTTP status and a stable error code with a message.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, code: CodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &apiError{status: http.StatusNotFound, code: CodeNotFound, msg: fmt.Sprintf(format, args...)}
}

// classifyError maps err onto the envelope's status, code and optional
// retry hint. It is shared by writeError and by the sweep endpoints'
// terminal NDJSON error records, so streamed and unary failures carry the
// same machine-readable codes.
func classifyError(err error) (status int, code string, retryAfterMs int64) {
	status, code = http.StatusInternalServerError, CodeInternal
	var httpErr *apiError
	switch {
	case errors.As(err, &httpErr):
		status = httpErr.status
		code = httpErr.code
	case errors.Is(err, ErrBatchQueueFull), errors.Is(err, ErrBatcherClosed), errors.Is(err, ErrPoolSaturated):
		// Shed load is retryable: the queue drains in at most a few batch
		// windows, so tell well-behaved clients when to come back.
		status = http.StatusServiceUnavailable
		code = CodeOverloaded
		retryAfterMs = 1000
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
		code = CodeTimeout
	case errors.Is(err, context.Canceled):
		status = 499 // client closed request
		code = CodeCanceled
	}
	return status, code, retryAfterMs
}

// writeError renders err as the v1 error envelope, mapping the service's
// sentinel errors onto statuses and codes.
func writeError(w http.ResponseWriter, err error) {
	status, code, retryAfterMs := classifyError(err)
	if retryAfterMs > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(retryAfterMs/1000, 10))
	}
	writeJSON(w, status, ErrorResponse{Error: ErrorBody{
		Code:         code,
		Message:      err.Error(),
		RetryAfterMs: retryAfterMs,
	}})
}
