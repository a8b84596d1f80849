// Package ctxprop enforces the context-propagation discipline from the
// fault-tolerance work: long-running or concurrent entry points must
// accept a context.Context from their caller and actually consult it,
// instead of manufacturing context.Background() internally where no
// deadline or cancellation can reach.
//
// Three rules, checked per function declaration:
//
//  1. A function with a context.Context parameter must use the
//     parameter somewhere in its body. A named-but-unused ctx is
//     exactly the gap that let builds ignore their deadline before
//     the build pipeline took a context. (A parameter named _ is an
//     explicit, visible opt-out and is not flagged.)
//
//  2. An exported function with no context parameter must not call
//     context.Background() or context.TODO(): it should accept the
//     context from its caller. Compatibility wrappers are sanctioned
//     by convention — if the package also exports a <Name>Ctx sibling
//     (function, or method on the same receiver), the wrapper is the
//     blessed Background() injection point and is exempt.
//
//  3. An exported function with no context parameter must not spawn
//     goroutines: whoever starts concurrent work needs a way to stop
//     it. The <Name>Ctx sibling convention exempts wrappers here too.
package ctxprop

import (
	"go/ast"
	"go/types"

	"elsi/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxprop",
	Doc:  "exported entry points that spawn goroutines or manufacture context.Background must accept and consult a context.Context",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	g := analysis.BuildGraph(pass)
	for _, fi := range g.Funcs {
		checkFunc(pass, fi)
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fi *analysis.FuncInfo) {
	fd := fi.Decl
	if fi.Obj == nil {
		return
	}
	sig, _ := fi.Obj.Type().(*types.Signature)
	if sig == nil {
		return
	}
	ctxParam := contextParam(sig)

	if ctxParam != nil {
		if ctxParam.Name() != "" && ctxParam.Name() != "_" && !usesVar(pass, fd.Body, ctxParam) {
			pass.Reportf(fd.Name.Pos(), "%s accepts a context.Context but never consults it; thread %s through blocking work or name it _ to opt out",
				fd.Name.Name, ctxParam.Name())
		}
		return
	}

	if !fd.Name.IsExported() || hasCtxSibling(pass, fi.Obj, sig) {
		return
	}

	for _, call := range fi.Calls {
		if isContextConstructor(call.Callee) {
			pass.Reportf(call.Site.Pos(), "exported %s manufactures %s.%s; accept a context.Context from the caller (or provide a %sCtx variant)",
				fd.Name.Name, call.Callee.Pkg().Name(), call.Callee.Name(), fd.Name.Name)
		}
	}
	for _, g := range fi.Gos {
		pass.Reportf(g.Stmt.Pos(), "exported %s spawns a goroutine but accepts no context.Context to bound it (or provide a %sCtx variant)",
			fd.Name.Name, fd.Name.Name)
	}
}

// contextParam returns the first context.Context parameter, if any.
func contextParam(sig *types.Signature) *types.Var {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return params.At(i)
		}
	}
	return nil
}

func isContextType(t types.Type) bool {
	named, _ := t.(*types.Named)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// usesVar reports whether v is referenced anywhere in body.
func usesVar(pass *analysis.Pass, body *ast.BlockStmt, v *types.Var) bool {
	if body == nil {
		return true // declaration without body: nothing to check
	}
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
			used = true
		}
		return true
	})
	return used
}

// isContextConstructor reports whether fn is context.Background or
// context.TODO.
func isContextConstructor(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return false
	}
	return fn.Name() == "Background" || fn.Name() == "TODO"
}

// hasCtxSibling reports whether the package exports a <Name>Ctx
// variant of fn: a package-level function for package-level functions,
// or a method on the same receiver type for methods.
func hasCtxSibling(pass *analysis.Pass, fn *types.Func, sig *types.Signature) bool {
	want := fn.Name() + "Ctx"
	if sig.Recv() == nil {
		obj := pass.Pkg.Scope().Lookup(want)
		sfn, _ := obj.(*types.Func)
		return sfn != nil && sfn.Exported()
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, _ := recv.(*types.Named)
	if named == nil {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == want && m.Exported() {
			return true
		}
	}
	return false
}
