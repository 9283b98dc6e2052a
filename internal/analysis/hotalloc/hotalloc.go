// Package hotalloc polices allocation in functions annotated
// //ppcvet:hotpath — the engine event loop, the oracle advance, the
// columnar frame decoder. These run once per trace reference, so a
// single per-iteration allocation multiplies by a billion on the large
// runs the streaming substrate exists for.
//
// Inside a hot function the analyzer reports
//
//   - any fmt.Sprintf call: it allocates the result string and boxes
//     every argument (strconv.Append* into a reused buffer does not);
//   - a map allocated inside a loop, by make or composite literal;
//   - append growth in a loop into a slice declared in the same
//     function without capacity (var s []T, []T{}, or two-argument
//     make): every doubling copies the backing array mid-loop;
//   - an explicit conversion to an interface type inside a loop, which
//     heap-boxes the value per iteration;
//   - the implicit conversion of a call inside a loop that passes a
//     non-pointer value to an interface-typed parameter, as in
//     heap.Push(&h, entry{...}): the same boxing, one per call.
//
// The annotation rides on the function's doc comment:
//
//	// runLoop advances the simulation one event at a time.
//	//ppcvet:hotpath
//	func (e *Engine) runLoop() { ... }
//
// A hotpath directive not attached to a function declaration is itself
// reported: an orphaned annotation protects nothing.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"ppcsim/internal/analysis"
)

// Analyzer is the hotalloc instance; it has no configuration — the
// hotpath annotations in the source are the configuration.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flag per-iteration allocation inside //ppcvet:hotpath functions",
	Run:  run,
}

func run(pass *analysis.Pass) {
	hot := map[string][]int{} // filename → hotpath directive lines, in order
	for _, d := range analysis.PackageDirectives(pass.Fset, pass.Files) {
		if d.Name == "hotpath" {
			hot[d.Pos.Filename] = append(hot[d.Pos.Filename], d.Pos.Line)
		}
	}
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		used := map[int]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if line, ok := hotDirective(pass, fd, hot[filename]); ok {
				used[line] = true
				checkHot(pass, fd)
			}
		}
		for _, line := range hot[filename] {
			if !used[line] {
				pass.Reportf(filePos(pass, f, line), "//ppcvet:hotpath is not attached to a function declaration")
			}
		}
	}
}

// hotDirective reports whether a hotpath directive on one of lines
// covers fd: the directive lies within fd's doc comment, or sits on the
// line directly above the declaration.
func hotDirective(pass *analysis.Pass, fd *ast.FuncDecl, lines []int) (int, bool) {
	pos := pass.Fset.Position(fd.Pos())
	lo := pos.Line - 1
	if fd.Doc != nil {
		lo = pass.Fset.Position(fd.Doc.Pos()).Line
	}
	for _, line := range lines {
		if line >= lo && line < pos.Line {
			return line, true
		}
	}
	return 0, false
}

// filePos converts a line back to a token.Pos inside f, so
// orphan-directive diagnostics carry their own location.
func filePos(pass *analysis.Pass, f *ast.File, line int) token.Pos {
	tf := pass.Fset.File(f.Pos())
	if tf == nil || line > tf.LineCount() {
		return f.Pos()
	}
	return tf.LineStart(line)
}

// checkHot walks one hot function. inLoop tracks lexical containment in
// a for or range statement; function literals inside the hot function
// are included — the engine's loop bodies close over state. A return runs
// once per call, so its results are not per iteration, unless inLit marks
// it as a function literal's, which may run once per iteration.
func checkHot(pass *analysis.Pass, fd *ast.FuncDecl) {
	unsized := unsizedSlices(pass, fd.Body)
	var walk func(n ast.Node, inLoop, inLit bool)
	walk = func(n ast.Node, inLoop, inLit bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch node := m.(type) {
			case *ast.ForStmt:
				if node.Init != nil {
					walk(node.Init, inLoop, inLit)
				}
				walk(node.Body, true, inLit)
				return false
			case *ast.RangeStmt:
				walk(node.Body, true, inLit)
				return false
			case *ast.FuncLit:
				walk(node.Body, inLoop, true)
				return false
			case *ast.ReturnStmt:
				if inLit {
					return true
				}
				for _, r := range node.Results {
					walk(r, false, false)
				}
				return false
			case *ast.CallExpr:
				checkCall(pass, node, inLoop, unsized)
			case *ast.CompositeLit:
				if inLoop && isMapType(pass.Info.TypeOf(node)) {
					pass.Reportf(node.Pos(), "map composite literal allocates per loop iteration in a hot path; hoist it out of the loop or reuse one map")
				}
			}
			return true
		})
	}
	walk(fd.Body, false, false)
}

// checkCall handles the call-shaped diagnostics: Sprintf, make(map) in
// loops, unsized append in loops, and interface conversions in loops.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, inLoop bool, unsized map[types.Object]bool) {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if inLoop && len(call.Args) == 1 {
			target := pass.Info.TypeOf(call.Fun)
			arg := pass.Info.TypeOf(call.Args[0])
			if target != nil && arg != nil && types.IsInterface(target) && !types.IsInterface(arg) {
				pass.Reportf(call.Pos(), "conversion to interface type boxes the value per loop iteration in a hot path")
			}
		}
		return
	}
	fn := analysis.Callee(pass.Info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fn.Name() == "Sprintf" {
		pass.Reportf(call.Pos(), "fmt.Sprintf allocates in a hot path; use strconv.Append* into a reused buffer")
		return
	}
	if !inLoop {
		return
	}
	name := builtinName(pass, call)
	if name == "" {
		checkBoxedArgs(pass, call)
	}
	switch name {
	case "make":
		if len(call.Args) >= 1 && isMapType(pass.Info.TypeOf(call.Args[0])) {
			pass.Reportf(call.Pos(), "map allocated per loop iteration in a hot path; hoist it out of the loop or reuse one map")
		}
	case "append":
		if len(call.Args) == 0 {
			return
		}
		if target, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := pass.Info.ObjectOf(target); obj != nil && unsized[obj] {
				pass.Reportf(call.Pos(), "append grows %s per iteration but it was declared without capacity; preallocate with make(..., 0, n)", target.Name)
			}
		}
	}
}

// checkBoxedArgs reports each argument of call that converts a
// non-pointer value to an interface-typed parameter. Constants and nil
// box without allocating, so they are not reported.
func checkBoxedArgs(pass *analysis.Pass, call *ast.CallExpr) {
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		pt := params.At(min(i, params.Len()-1)).Type()
		if sig.Variadic() && i >= params.Len()-1 {
			if call.Ellipsis.IsValid() {
				continue // the slice is passed as it is
			}
			pt = pt.(*types.Slice).Elem()
		}
		tv := pass.Info.Types[arg]
		if tv.Type == nil || tv.Value != nil || tv.IsNil() || !types.IsInterface(pt) || types.IsInterface(tv.Type) {
			continue
		}
		switch tv.Type.Underlying().(type) {
		case *types.Pointer, *types.Map, *types.Chan, *types.Signature, *types.Tuple:
			continue // pointer-shaped, stored in the interface word; or f(g())
		}
		name := types.TypeString(tv.Type, (*types.Package).Name)
		pass.Reportf(arg.Pos(), "passing a non-pointer %s to an interface parameter boxes it per loop iteration in a hot path", name)
	}
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(pass *analysis.Pass, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
		return b.Name()
	}
	return ""
}

// unsizedSlices collects function-local slice variables declared with
// no capacity: var s []T, s := []T{}, or s := make([]T, n) without a
// capacity argument.
func unsizedSlices(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	unsized := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.DeclStmt:
			gd, ok := node.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					if obj := pass.Info.Defs[name]; obj != nil && isSliceType(obj.Type()) {
						unsized[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				if i >= len(node.Rhs) {
					break
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.ObjectOf(id)
				if obj == nil || !isSliceType(obj.Type()) {
					continue
				}
				switch rhs := ast.Unparen(node.Rhs[i]).(type) {
				case *ast.CompositeLit:
					if len(rhs.Elts) == 0 && isSliceType(pass.Info.TypeOf(rhs)) {
						unsized[obj] = true
					}
				case *ast.CallExpr:
					if builtinName(pass, rhs) == "make" &&
						len(rhs.Args) == 2 && isSliceType(pass.Info.TypeOf(rhs.Args[0])) {
						unsized[obj] = true
					}
				}
			}
		}
		return true
	})
	return unsized
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}
