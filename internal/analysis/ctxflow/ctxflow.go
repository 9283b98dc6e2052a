// Package ctxflow enforces context.Context plumbing discipline across
// the serving stack, where cancellation is the backbone of per-request
// deadlines, client-disconnect teardown, and graceful drain:
//
//   - A context parameter must come first, matching the standard
//     library convention every call site reads by.
//   - context.Context must not be stored in struct fields: a stored
//     context outlives the call it scoped and silently decouples
//     cancellation from the work it governs. Named carrier types with a
//     documented reason (the engine's cooperative-cancellation Config,
//     the per-job scheduler) are allowlisted as pkgpath.TypeName.
//   - The cancel function returned by context.WithCancel, WithTimeout,
//     WithDeadline, or WithCancelCause must be visibly called on all
//     paths, which lexically means `defer cancel()` in the same block
//     after the assignment. Discarding it with _ is always a leak: the
//     derived context's timer and goroutine survive until the parent
//     dies.
package ctxflow

import (
	"go/ast"
	"go/types"

	"ppcsim/internal/analysis"
)

// New returns the analyzer. allow lists struct types permitted to carry
// a context field, as pkgpath.TypeName (for the fixture and test
// packages the package path is the one given to the loader, e.g.
// "fixture/clean.carrier").
func New(allow []string) *analysis.Analyzer {
	allowed := make(map[string]bool, len(allow))
	for _, a := range allow {
		allowed[a] = true
	}
	return &analysis.Analyzer{
		Name: "ctxflow",
		Doc:  "require context-first signatures, no stored contexts outside the allowlist, and deferred cancels",
		Run:  func(pass *analysis.Pass) { run(pass, allowed) },
	}
}

// Analyzer is the default instance with an empty allowlist.
var Analyzer = New(nil)

func run(pass *analysis.Pass, allowed map[string]bool) {
	for _, f := range pass.Files {
		checkSignatures(pass, f)
		checkStoredContexts(pass, f, allowed)
		checkCancels(pass, f)
	}
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkSignatures flags any function type — declaration, literal,
// interface method, or named function type — whose context parameter is
// not the first.
func checkSignatures(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		ft, ok := n.(*ast.FuncType)
		if !ok || ft.Params == nil || len(ft.Params.List) == 0 {
			return true
		}
		first := pass.Info.TypeOf(ft.Params.List[0].Type)
		if first != nil && isContext(first) {
			// Context already leads; a second context parameter in a
			// merge helper is deliberate.
			return true
		}
		for _, field := range ft.Params.List[1:] {
			if t := pass.Info.TypeOf(field.Type); t != nil && isContext(t) {
				pass.Reportf(field.Pos(), "context.Context must be the first parameter")
			}
		}
		return true
	})
}

// checkStoredContexts flags struct fields of type context.Context
// outside the allowlist.
func checkStoredContexts(pass *analysis.Pass, f *ast.File, allowed map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		qualified := pass.Pkg.Path() + "." + ts.Name.Name
		for _, field := range st.Fields.List {
			t := pass.Info.TypeOf(field.Type)
			if t == nil || !isContext(t) {
				continue
			}
			if allowed[qualified] {
				continue
			}
			pass.Reportf(field.Pos(), "context.Context stored in struct field of %s; pass it as a call parameter (or allowlist the carrier in ppc-vet)", ts.Name.Name)
		}
		return true
	})
}

// cancelConstructors are the context functions returning (Context,
// CancelFunc) pairs whose cancel must not be lost.
var cancelConstructors = map[string]bool{
	"WithCancel":      true,
	"WithTimeout":     true,
	"WithDeadline":    true,
	"WithCancelCause": true,
}

// checkCancels finds every `ctx, cancel := context.WithX(...)`
// assignment and requires a `defer cancel()` later in the same block.
func checkCancels(pass *analysis.Pass, f *ast.File) {
	analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) != 2 {
			return
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		fn := analysis.Callee(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" || !cancelConstructors[fn.Name()] {
			return
		}
		cancel, ok := ast.Unparen(assign.Lhs[1]).(*ast.Ident)
		if !ok {
			return
		}
		if cancel.Name == "_" {
			pass.Reportf(cancel.Pos(), "cancel function of context.%s discarded; the derived context leaks its timer until the parent dies", fn.Name())
			return
		}
		obj := pass.Info.ObjectOf(cancel)
		if obj == nil {
			return
		}
		if !deferredInBlock(pass, stack, assign, obj) {
			pass.Reportf(cancel.Pos(), "cancel function of context.%s is not deferred in this block; use `defer %s()` so every path releases the context", fn.Name(), cancel.Name)
		}
	})
}

// deferredInBlock reports whether a `defer cancel()` for obj follows
// the assignment in its innermost enclosing statement list.
func deferredInBlock(pass *analysis.Pass, stack []ast.Node, assign ast.Stmt, obj types.Object) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		var list []ast.Stmt
		switch parent := stack[i].(type) {
		case *ast.BlockStmt:
			list = parent.List
		case *ast.CaseClause:
			list = parent.Body
		case *ast.CommClause:
			list = parent.Body
		default:
			continue
		}
		seen := false
		for _, stmt := range list {
			if stmt == assign {
				seen = true
				continue
			}
			if !seen {
				continue
			}
			d, ok := stmt.(*ast.DeferStmt)
			if !ok {
				continue
			}
			if id, ok := ast.Unparen(d.Call.Fun).(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
				return true
			}
		}
		// Only the innermost statement list containing the assignment
		// matters: the cancel variable is scoped to it.
		return false
	}
	return false
}
