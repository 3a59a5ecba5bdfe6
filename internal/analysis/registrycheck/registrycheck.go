// Package registrycheck keeps the wire registry exhaustive. The
// nameserver's wire.go declares a wireTypes map naming every struct that
// crosses the wire, and codec.go hand-rolls an append<T>/parse<T> pair per
// type. A field the encoder skips is silently dropped from every frame
// with no runtime error, so the registry — not the codec — is the source
// of truth, and the analyzer holds the two together with three rules:
//
//   - Closure: the codec's entry points are the append<T>/parse<T>
//     functions that non-codec code calls (send, receive). The
//     package-local structs reachable from their types through struct
//     fields must equal the registry, in both directions.
//   - Completeness: every registered type has both append<T> and
//     parse<T>, and each touches every field of its type.
//   - Handlers: every field of the request struct is read somewhere in
//     the package outside the codec, or a request kind exists that the
//     server silently ignores.
package registrycheck

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"namecoherence/internal/analysis"
)

// Scope limits the analyzer to packages that own a wire registry.
var Scope = []string{"nameserver"}

// RegistryVar is the name of the registry map the analyzer audits; the
// check is silent in packages that do not declare it.
const RegistryVar = "wireTypes"

// RequestType is the struct whose fields the handler-exhaustiveness rule
// covers.
const RequestType = "request"

// Analyzer is the registrycheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "registrycheck",
	Doc:  "requires every wire type the codec entry points reach to appear in the wireTypes registry, every request field to be handled, and every registered type's codec functions to cover all fields",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path()) {
		return nil, nil
	}
	registry, positions := registryEntries(pass)
	if registry == nil {
		return nil, nil
	}

	decls := funcDecls(pass)
	codec := codecFuncs(pass, decls)
	handlers := handlerDecls(pass, codec)
	reachable := wireClosure(pass, codec, handlers)

	// Direction 1: every type that crosses the wire is registered.
	for _, named := range sortedTypes(reachable) {
		if !registry[named] {
			pass.Reportf(reachable[named].Pos(),
				"wire type %s crosses the wire through a codec entry point but is missing from the %s registry",
				named.Obj().Name(), RegistryVar)
		}
	}
	// Direction 2: every registered type actually crosses the wire.
	for _, named := range sortedTypes(positions) {
		if _, ok := reachable[named]; !ok {
			pass.Reportf(positions[named].Pos(),
				"%s entry %s is reached by no codec entry point; dead registry entries hide real gaps",
				RegistryVar, named.Obj().Name())
		}
	}

	checkRequestFields(pass, handlers)
	checkCodec(pass, positions, decls)
	return nil, nil
}

// codecFuncNames maps a registered type name to its codec function names
// ("request" → appendRequest/parseRequest).
func codecFuncNames(typeName string) (appendName, parseName string) {
	upper := strings.ToUpper(typeName[:1]) + typeName[1:]
	return "append" + upper, "parse" + upper
}

// funcDecls indexes the package's receiver-less function declarations by
// name.
func funcDecls(pass *analysis.Pass) map[string]*ast.FuncDecl {
	decls := make(map[string]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				decls[fd.Name.Name] = fd
			}
		}
	}
	return decls
}

// codecFuncs maps each codec function of the package — append<T> or
// parse<T> for a package-local struct type T — to T.
func codecFuncs(pass *analysis.Pass, decls map[string]*ast.FuncDecl) map[*types.Func]*types.Named {
	out := make(map[*types.Func]*types.Named)
	for _, obj := range pass.Pkg.Scope().Names() {
		named := localNamed(pass, pass.Pkg.Scope().Lookup(obj).Type())
		if named == nil || named.Obj().Name() != obj {
			continue
		}
		appendName, parseName := codecFuncNames(obj)
		for _, name := range []string{appendName, parseName} {
			if fd := decls[name]; fd != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					out[fn] = named
				}
			}
		}
	}
	return out
}

// checkCodec enforces codec completeness over the registry: every
// registered type needs the full append<T>/parse<T> pair, and each
// function must touch every field of its type. "Touch" is any selection
// of the field in the function body — encoders read fields, decoders
// assign them, and either appears as a selector — so a new wire field
// that only one side handles is caught at the side that forgot it.
func checkCodec(pass *analysis.Pass, positions map[*types.Named]ast.Node, decls map[string]*ast.FuncDecl) {
	for _, named := range sortedTypes(positions) {
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		appendName, parseName := codecFuncNames(named.Obj().Name())
		for _, fnName := range []string{appendName, parseName} {
			fd := decls[fnName]
			if fd == nil {
				pass.Reportf(positions[named].Pos(),
					"wire type %s has no codec function %s: frames of this type cannot cross the wire",
					named.Obj().Name(), fnName)
				continue
			}
			touched := fieldsTouched(pass, fd)
			for i := 0; i < st.NumFields(); i++ {
				field := st.Field(i)
				if !touched[field] {
					pass.Reportf(fd.Name.Pos(),
						"codec function %s never touches %s.%s: the field would be silently dropped from every frame",
						fnName, named.Obj().Name(), field.Name())
				}
			}
		}
	}
}

// fieldsTouched collects every struct field selected anywhere in fd's body.
func fieldsTouched(pass *analysis.Pass, fd *ast.FuncDecl) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	if fd.Body == nil {
		return out
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s := pass.TypesInfo.Selections[sel]; s != nil {
			if v, ok := s.Obj().(*types.Var); ok {
				out[v] = true
			}
		}
		return true
	})
	return out
}

func inScope(path string) bool {
	for _, s := range Scope {
		if strings.Contains(path, s) {
			return true
		}
	}
	return false
}

// registryEntries reads the package-level RegistryVar composite literal,
// returning the set of named types it registers and each entry's position.
// nil means the package has no registry to audit.
func registryEntries(pass *analysis.Pass) (map[*types.Named]bool, map[*types.Named]ast.Node) {
	var lit *ast.CompositeLit
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != RegistryVar || i >= len(vs.Values) {
						continue
					}
					if cl, ok := ast.Unparen(vs.Values[i]).(*ast.CompositeLit); ok {
						lit = cl
					}
				}
			}
		}
	}
	if lit == nil {
		return nil, nil
	}
	set := make(map[*types.Named]bool)
	where := make(map[*types.Named]ast.Node)
	for _, elt := range lit.Elts {
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
		}
		if named := localNamed(pass, pass.TypesInfo.Types[val].Type); named != nil {
			set[named] = true
			where[named] = val
		}
	}
	return set, where
}

// wireClosure finds every package-local named struct type reachable,
// through struct fields, from the type of a codec entry point — a codec
// function called from one of the handlers. Each type maps to its declaration (falling back to
// the entry call site for types declared elsewhere). Codec functions
// calling each other (appendResponse → appendResult) do not root
// anything: the callee's type is reached through the caller's fields or
// not at all.
func wireClosure(pass *analysis.Pass, codec map[*types.Func]*types.Named, handlers []*ast.FuncDecl) map[*types.Named]ast.Node {
	out := make(map[*types.Named]ast.Node)
	var add func(t types.Type, at ast.Node)
	add = func(t types.Type, at ast.Node) {
		named := localNamed(pass, t)
		if named == nil {
			if t != nil {
				switch u := t.(type) {
				case *types.Pointer:
					add(u.Elem(), at)
				case *types.Slice:
					add(u.Elem(), at)
				case *types.Array:
					add(u.Elem(), at)
				case *types.Map:
					add(u.Elem(), at)
				}
			}
			return
		}
		if _, seen := out[named]; seen {
			return
		}
		out[named] = declNode(pass, named, at)
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				add(st.Field(i).Type(), at)
			}
		}
	}
	for _, fd := range handlers {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if named := codec[analysis.CalleeFunc(pass.TypesInfo, call)]; named != nil {
					add(named, call)
				}
			}
			return true
		})
	}
	return out
}

// handlerDecls returns the package's function bodies outside the codec:
// every declaration with a body that is not a codec function, skipping
// test files (a test round-tripping a type does not put it on the wire,
// and a test reading a request field does not handle it).
func handlerDecls(pass *analysis.Pass, codec map[*types.Func]*types.Named) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && codec[fn] != nil {
				continue
			}
			out = append(out, fd)
		}
	}
	return out
}

// declNode finds the type's declaration spec in the package files, so the
// diagnostic lands on `type request struct` rather than on some call site.
func declNode(pass *analysis.Pass, named *types.Named, fallback ast.Node) ast.Node {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if ok && pass.TypesInfo.Defs[ts.Name] == named.Obj() {
					return ts
				}
			}
		}
	}
	return fallback
}

// checkRequestFields demands that every field of the request struct is
// read (as an rvalue selector) by some handler: the encoder reads every
// field by construction, so its reads say nothing about whether a
// handler serves the field.
func checkRequestFields(pass *analysis.Pass, handlers []*ast.FuncDecl) {
	scope := pass.Pkg.Scope()
	obj, ok := scope.Lookup(RequestType).(*types.TypeName)
	if !ok {
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	read := make(map[*types.Var]bool)
	for _, fd := range handlers {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if assign, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range assign.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						// A bare store is not handling; only the selector's
						// base expression counts as read.
						markSelRead(pass, read, sel.X)
					} else {
						// Indexed stores like req.Paths[k] = v do read the
						// field (to index it), as do other compound targets.
						markSelRead(pass, read, lhs)
					}
				}
				for _, rhs := range assign.Rhs {
					markSelRead(pass, read, rhs)
				}
				return false
			}
			if sel, ok := n.(*ast.SelectorExpr); ok {
				markSelRead(pass, read, sel)
				return false
			}
			return true
		})
	}
	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		if !read[field] {
			pass.Reportf(field.Pos(),
				"%s field %s is never read in this package: a request kind no handler serves",
				RequestType, field.Name())
		}
	}
}

// markSelRead records every field selection inside e as a read.
func markSelRead(pass *analysis.Pass, read map[*types.Var]bool, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s := pass.TypesInfo.Selections[sel]; s != nil {
			if v, ok := s.Obj().(*types.Var); ok {
				read[v] = true
			}
		}
		return true
	})
}

// sortedTypes orders a type-keyed map by type name so diagnostics come out
// deterministically (detrand's own rule applies to us too).
func sortedTypes(m map[*types.Named]ast.Node) []*types.Named {
	out := make([]*types.Named, 0, len(m))
	for named := range m {
		out = append(out, named)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Obj().Name() < out[j].Obj().Name()
	})
	return out
}

// localNamed returns t as a named type declared in this package (after
// pointer indirection), or nil.
func localNamed(pass *analysis.Pass, t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != pass.Pkg {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}
