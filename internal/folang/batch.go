package folang

import (
	"context"

	"topodb/internal/par"
)

// EvaluateAll parses and evaluates a batch of closed queries against one
// shared universe. Every query is attempted: a malformed or failing
// query no longer aborts its siblings. results[i] is the verdict of
// srcs[i]; when any query fails, the returned error is a *BatchError
// listing each failure by position (and results[i] is false for those
// positions), while the sibling verdicts remain valid.
func EvaluateAll(u *Universe, srcs []string) ([]bool, error) {
	return EvaluateAllCtx(context.Background(), u, srcs)
}

// EvaluateAllCtx is EvaluateAll under a context. Parsing is sequential
// (it is cheap and deterministic); evaluation fans out over a bounded
// worker pool with one Evaluator per query — the Universe is read-only
// during evaluation, so concurrent evaluators are safe. Once ctx fires,
// unstarted queries fail with ctx.Err() and running ones stop at their
// next quantifier binding.
func EvaluateAllCtx(ctx context.Context, u *Universe, srcs []string) ([]bool, error) {
	fs := make([]Formula, len(srcs))
	parseErrs := make([]error, len(srcs))
	for i, src := range srcs {
		fs[i], parseErrs[i] = Parse(src)
	}
	results, evalErrs := evalAllCtx(ctx, u, fs, parseErrs)
	return results, collectBatchErrors(srcs, parseErrs, evalErrs)
}

// evalAllCtx runs the fan-out. skip[i] != nil marks a formula that
// failed to parse and must not be evaluated.
func evalAllCtx(ctx context.Context, u *Universe, fs []Formula, skip []error) ([]bool, []error) {
	results := make([]bool, len(fs))
	errs := make([]error, len(fs))
	done := make([]bool, len(fs))
	par.ForCtx(ctx, len(fs), func(i int) {
		if skip[i] == nil {
			results[i], errs[i] = NewEvaluator(u).EvalCtx(ctx, fs[i])
		}
		done[i] = true
	})
	// Only iterations the pool never claimed (context fired first) carry
	// the context error; queries that completed before the context fired
	// keep their verdicts. done is coherent here: ForCtx waits for every
	// in-flight worker before returning.
	if err := ctx.Err(); err != nil {
		for i := range errs {
			if !done[i] {
				errs[i] = err
			}
		}
	}
	return results, errs
}

// collectBatchErrors merges parse and evaluation failures into one
// position-ordered *BatchError, or nil when everything succeeded.
func collectBatchErrors(srcs []string, parseErrs, evalErrs []error) error {
	var failures []*QueryError
	for i := range evalErrs {
		err := evalErrs[i]
		if parseErrs[i] != nil {
			err = parseErrs[i]
		}
		if err == nil {
			continue
		}
		failures = append(failures, &QueryError{Index: i, Src: srcs[i], Err: err})
	}
	if len(failures) == 0 {
		return nil
	}
	return &BatchError{Errs: failures}
}
