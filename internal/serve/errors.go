// Package serve is topodb's network serving tier: an HTTP/JSON front-end
// over named topodb.Instances that does real serving-tier work on top of
// the embedded library — whole-request coalescing of identical concurrent
// reads, admission control and deadlines mapped onto the library's typed
// errors, and per-route observability exported on /metrics. Each read
// evaluates directly on a snapshot of its instance.
//
// The package is wired into a binary by cmd/topodbd and load-tested by
// cmd/benchtab's -serve-load mode; see the README "Serving" section for
// the wire protocol and operational semantics.
package serve

import (
	"errors"
	"net/http"

	"topodb"
)

// ErrorClass is one row of the canonical typed-error mapping: the wire
// code and HTTP status the server uses, and the exit code cmd/topoquery
// uses, for one class of topodb error. Having a single table keeps the
// CLI and the wire API from ever drifting:
//
//	error                  wire code          HTTP  exit
//	ErrParse               parse              400   2
//	ErrNotSelectable       not_selectable     400   2
//	ErrNoRegion            no_region          404   3
//	ErrCanceled            canceled           504   4
//	ErrTooManyRegions      too_many_regions   413   5
//	(anything else)        internal           500   1
//
// Server-originated conditions that have no library error reuse the same
// shape: an unknown instance name is no_instance/404, a malformed request
// envelope is bad_request/400, and a request shed by admission control is
// overloaded/429 (with Retry-After). ErrTooManyRegions is deliberately
// 413 (the instance outgrew the configured region budget — the request
// entity class), while overload shedding is 429 (the server, not the
// data, is saturated — retrying later can succeed without any config
// change).
type ErrorClass struct {
	Code   string // stable machine-readable class, e.g. "parse"
	Status int    // HTTP status the wire API responds with
	Exit   int    // exit code cmd/topoquery terminates with
}

// The canonical classes. ClassOf maps library errors onto the first six;
// the server-originated ones are used directly by the handlers.
var (
	ClassOK             = ErrorClass{Code: "ok", Status: http.StatusOK, Exit: 0}
	ClassParse          = ErrorClass{Code: "parse", Status: http.StatusBadRequest, Exit: 2}
	ClassNotSelectable  = ErrorClass{Code: "not_selectable", Status: http.StatusBadRequest, Exit: 2}
	ClassNoRegion       = ErrorClass{Code: "no_region", Status: http.StatusNotFound, Exit: 3}
	ClassCanceled       = ErrorClass{Code: "canceled", Status: http.StatusGatewayTimeout, Exit: 4}
	ClassTooManyRegions = ErrorClass{Code: "too_many_regions", Status: http.StatusRequestEntityTooLarge, Exit: 5}
	ClassInternal       = ErrorClass{Code: "internal", Status: http.StatusInternalServerError, Exit: 1}

	ClassNoInstance = ErrorClass{Code: "no_instance", Status: http.StatusNotFound, Exit: 3}
	ClassBadRequest = ErrorClass{Code: "bad_request", Status: http.StatusBadRequest, Exit: 1}
	ClassOverloaded = ErrorClass{Code: "overloaded", Status: http.StatusTooManyRequests, Exit: 1}
)

// ClassOf classifies an error from the topodb API into the canonical
// table. A nil error is ClassOK.
func ClassOf(err error) ErrorClass {
	switch {
	case err == nil:
		return ClassOK
	case errors.Is(err, topodb.ErrParse):
		return ClassParse
	case errors.Is(err, topodb.ErrNotSelectable):
		return ClassNotSelectable
	case errors.Is(err, topodb.ErrNoRegion):
		return ClassNoRegion
	case errors.Is(err, topodb.ErrCanceled):
		return ClassCanceled
	case errors.Is(err, topodb.ErrTooManyRegions):
		return ClassTooManyRegions
	default:
		return ClassInternal
	}
}

// ExitCode maps an error onto cmd/topoquery's exit code via the same
// table the wire API uses, so shell callers and HTTP clients branch on
// the same taxonomy.
func ExitCode(err error) int { return ClassOf(err).Exit }
