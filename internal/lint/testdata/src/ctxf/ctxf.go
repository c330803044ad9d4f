// Package ctxf exercises the ctxflow analyzer: a function holding a
// context must call the ...Ctx variant of an API that has one.
package ctxf

import "context"

// Work is the context-less variant.
func Work() int { return 1 }

// WorkCtx is its cancellable sibling.
func WorkCtx(ctx context.Context) int {
	if ctx.Err() != nil {
		return 0
	}
	return 1
}

// Solo has no Ctx sibling.
func Solo() int { return 2 }

// Engine carries the method-pair case.
type Engine struct{ n int }

func (e *Engine) Eval() int { return e.n }

func (e *Engine) EvalCtx(ctx context.Context) int {
	if ctx.Err() != nil {
		return 0
	}
	return e.n
}

// DropWrong holds a context but calls the context-less variant.
func DropWrong(ctx context.Context) int {
	return Work() // want "Work drops the in-scope context; call WorkCtx"
}

// MethodDropWrong does the same through a method.
func MethodDropWrong(ctx context.Context, e *Engine) int {
	return e.Eval() // want "Eval drops the in-scope context; call EvalCtx"
}

// ClosureDropWrong captures the context lexically; the closure must still
// thread it.
func ClosureDropWrong(ctx context.Context) func() int {
	return func() int {
		return Work() // want "Work drops the in-scope context; call WorkCtx"
	}
}

// ThreadRight threads the context.
func ThreadRight(ctx context.Context, e *Engine) int {
	return WorkCtx(ctx) + e.EvalCtx(ctx)
}

// NoCtxRight has no context to thread: calling the plain variant is the
// only option, and wrapping context.Background() here would be noise.
func NoCtxRight(e *Engine) int {
	return Work() + e.Eval()
}

// SoloRight calls an API without a Ctx sibling; nothing to flag.
func SoloRight(ctx context.Context) int {
	_ = ctx.Err()
	return Solo()
}

// Derive is the context-less variant of a registered sibling pair: its
// cancellable sibling's name does not follow the ...Ctx convention, so
// only the knownSiblings table links them.
func Derive() int { return 3 }

// DeriveWithContext is Derive's registered cancellable sibling.
func DeriveWithContext(ctx context.Context) int {
	if ctx.Err() != nil {
		return 0
	}
	return 3
}

// RegisteredDropWrong holds a context but calls the table-registered
// context-less variant.
func RegisteredDropWrong(ctx context.Context) int {
	return Derive() // want "Derive drops the in-scope context; call DeriveWithContext"
}

// RegisteredThreadRight threads the context through the registered
// sibling.
func RegisteredThreadRight(ctx context.Context) int {
	return DeriveWithContext(ctx)
}

// RegisteredNoCtxRight has no context in scope; the plain variant is
// fine.
func RegisteredNoCtxRight() int {
	return Derive()
}

// BuildScaffolded is the context-less variant of a pair that both follows
// the ...Ctx convention and is pinned in knownSiblings: the explicit
// registration must not break or duplicate the convention-derived link.
func BuildScaffolded() int { return 4 }

// BuildScaffoldedCtx is BuildScaffolded's cancellable sibling.
func BuildScaffoldedCtx(ctx context.Context) int {
	if ctx.Err() != nil {
		return 0
	}
	return 4
}

// PinnedDropWrong holds a context but calls the pinned context-less
// variant.
func PinnedDropWrong(ctx context.Context) int {
	return BuildScaffolded() // want "BuildScaffolded drops the in-scope context; call BuildScaffoldedCtx"
}

// PinnedThreadRight threads the context through the pinned sibling.
func PinnedThreadRight(ctx context.Context) int {
	return BuildScaffoldedCtx(ctx)
}

// PinnedNoCtxRight has no context in scope; the plain variant is fine.
func PinnedNoCtxRight() int {
	return BuildScaffolded()
}
