package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces context threading: a function that has a
// context.Context in scope must not call the context-less variant of an
// API that offers a ...Ctx sibling. Dropping the context there silently
// severs cancellation — the exact bug class the serving tier's deadline
// tests exist to catch, found and fixed by hand once per API before this
// analyzer existed.
//
// A call to F (or recv.M) is flagged when
//   - a function literal or declaration enclosing the call site has a
//     context.Context parameter, and
//   - FCtx (or recv.MCtx) exists with the same receiver and is visible
//     from the call site.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "flags context-less calls to APIs with a ...Ctx sibling from " +
		"functions that have a context.Context to thread",
	Run: runCtxFlow,
}

// knownSiblings registers context-less → cancellable sibling pairs the
// suffix convention alone would miss or that are load-bearing enough to
// pin explicitly: keys are package-level functions as "import/path.Func",
// values the sibling's name in the same package. A registered pair is
// flagged even if the sibling's name does not end in Ctx; the sibling
// must still be visible and accept a context, like convention-derived
// ones.
var knownSiblings = map[string]string{
	// The invariant derivation pair behind the incremental pipeline: the
	// caches must poll cancellation through FromArrangementCtx, never the
	// background-context wrapper.
	"topodb/internal/invariant.FromArrangement": "FromArrangementCtx",
	// Fixture pair exercising the table (non-convention sibling name).
	"ctxf.Derive": "DeriveWithContext",
	// Fixture pair pinning a convention-named sibling explicitly: the
	// registration must neither break nor duplicate the convention link.
	"ctxf.BuildScaffolded": "BuildScaffoldedCtx",
}

func runCtxFlow(pass *Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		// ctxDepth tracks how many enclosing funcs carry a ctx parameter.
		var stack []bool
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				stack = append(stack, funcHasCtxParam(info, n.Type))
				if n.Body != nil {
					ast.Inspect(n.Body, walk)
				}
				stack = stack[:len(stack)-1]
				return false
			case *ast.FuncLit:
				stack = append(stack, funcHasCtxParam(info, n.Type))
				ast.Inspect(n.Body, walk)
				stack = stack[:len(stack)-1]
				return false
			case *ast.CallExpr:
				ctxInScope := false
				for _, has := range stack {
					if has {
						ctxInScope = true
						break
					}
				}
				if ctxInScope {
					checkCtxCall(pass, n)
				}
			}
			return true
		}
		ast.Inspect(f, walk)
	}
	return nil
}

func checkCtxCall(pass *Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	var calleeIdent *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		calleeIdent = fun
	case *ast.SelectorExpr:
		calleeIdent = fun.Sel
	default:
		return
	}
	fn, ok := info.Uses[calleeIdent].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	recv := fn.Type().(*types.Signature).Recv()
	sibling, known := "", false
	if recv == nil {
		sibling, known = knownSiblings[fn.Pkg().Path()+"."+fn.Name()]
	}
	if !known {
		if strings.HasSuffix(fn.Name(), "Ctx") {
			return
		}
		sibling = fn.Name() + "Ctx"
	}
	var sib types.Object
	if recv != nil {
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), sibling)
		sib = obj
	} else {
		sib = fn.Pkg().Scope().Lookup(sibling)
	}
	sfn, ok := sib.(*types.Func)
	if !ok {
		return
	}
	// The sibling must be callable from here: exported, or same package.
	if !sfn.Exported() && sfn.Pkg() != pass.Pkg {
		return
	}
	// The sibling must actually accept a context (guards against
	// coincidental ...Ctx names).
	sig := sfn.Type().(*types.Signature)
	hasCtx := false
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			hasCtx = true
			break
		}
	}
	if !hasCtx {
		return
	}
	pass.Reportf(call.Pos(),
		"%s drops the in-scope context; call %s and thread it",
		fn.Name(), sibling)
}
