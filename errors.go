package topodb

import (
	"context"
	"errors"
	"fmt"

	"topodb/internal/arrange"
	"topodb/internal/folang"
)

// Typed sentinel errors. Every error the public API returns matches at
// most one of these under errors.Is, so callers branch on error class —
// retry on ErrCanceled, reject the query on ErrParse, 404 on ErrNoRegion
// — instead of scraping message strings.
var (
	// ErrParse marks a malformed query (Prepare, Query, QueryBatch).
	// Use errors.As with *ParseError for the diagnostic; the sentinel
	// alone classifies.
	ErrParse = folang.ErrParse

	// ErrNoRegion marks a reference to a region name the instance (or
	// the pinned snapshot) does not contain.
	ErrNoRegion = folang.ErrNoRegion

	// ErrTooManyRegions marks an instance beyond the configurable region
	// budget (SetRegionBudget, default 4096). Owner sets are interned
	// member lists and labels are sparse, so the budget is admission
	// control for runaway loads, not a structural capacity: raise it and
	// the same instance builds.
	ErrTooManyRegions = arrange.ErrTooManyRegions

	// ErrCanceled marks an evaluation stopped by its context, whether
	// canceled or past its deadline. The context's own error stays in
	// the chain: errors.Is(err, context.DeadlineExceeded) still
	// distinguishes timeouts.
	ErrCanceled = errors.New("topodb: canceled")

	// ErrNotSelectable marks a Select on a query whose outermost node
	// is not a quantifier at all — there is no binding to enumerate.
	// All three sorts are selectable: name and cell domains are finite
	// and scanned completely, region witnesses are enumerated up to the
	// region enumeration budget (Result.Complete reports exhaustion).
	ErrNotSelectable = folang.ErrNotSelectable
)

// ParseError is a query syntax error carrying the offending source and a
// parser diagnostic; it matches ErrParse under errors.Is.
type ParseError = folang.ParseError

// BatchError is the aggregate error of a query batch: one QueryError per
// failed query, ordered by position, returned alongside the verdicts of
// the queries that succeeded.
type BatchError = folang.BatchError

// QueryError locates one failed query of a batch by position.
type QueryError = folang.QueryError

// canceledError brands a context error as ErrCanceled while keeping the
// original cause (context.Canceled or context.DeadlineExceeded)
// reachable through Unwrap.
type canceledError struct{ cause error }

func (e *canceledError) Error() string        { return "topodb: canceled: " + e.cause.Error() }
func (e *canceledError) Is(target error) bool { return target == ErrCanceled }
func (e *canceledError) Unwrap() error        { return e.cause }

// wrapCanceled brands context cancellation at the API boundary; every
// other error passes through untouched.
func wrapCanceled(err error) error {
	if err == nil {
		return nil
	}
	if isCtxErr(err) {
		return &canceledError{cause: err}
	}
	return err
}

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// noRegion builds the typed error for a missing region name.
func noRegion(name string) error {
	return fmt.Errorf("topodb: no region %q: %w", name, ErrNoRegion)
}

// SetRegionBudget sets the largest region count an arrangement build
// accepts, returning the previous setting. Instances beyond the budget
// fail with ErrTooManyRegions. The default is 4096; any budget the
// machine's memory supports is valid — the former compile-time 256-region
// owner-set ceiling is gone (owner sets are interned, variable-width).
// The budget is process-wide and safe for concurrent use.
func SetRegionBudget(n int) int { return arrange.SetRegionBudget(n) }

// RegionBudget returns the current region-count budget.
func RegionBudget() int { return arrange.RegionBudget() }
