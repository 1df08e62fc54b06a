package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/admission"
	"repro/internal/kernels"
	"repro/internal/minic"
)

// apiError is an error with a fixed HTTP status.
type apiError struct {
	status int
	msg    string
}

// Error implements the error interface.
func (e *apiError) Error() string { return e.msg }

// badRequestf builds a 400 error.
func badRequestf(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// quotaError is a per-client quota rejection carrying the
// refill-derived Retry-After (seconds).
type quotaError struct {
	retryAfter int
}

// Error implements the error interface.
func (e *quotaError) Error() string { return "client over request quota" }

// statusFor maps an error to its HTTP status. The classification mirrors
// the CLIs' exit-code discipline (user-input errors versus internal
// failures): parse errors, unknown kernels and request-validation
// failures are the client's fault (4xx); a full queue is backpressure
// (429); an expired deadline is 504; anything else is a 500.
func statusFor(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	var pe *minic.ParseError
	var uk *kernels.UnknownKernelError
	var de *admission.DeadlineError
	var qe *quotaError
	switch {
	case errors.As(err, &pe), errors.As(err, &uk):
		return http.StatusBadRequest
	case errors.Is(err, admission.ErrQueueFull), errors.As(err, &de), errors.As(err, &qe):
		// All three admission rejections are backpressure: full queue,
		// unmeetable deadline, exhausted client quota.
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}
