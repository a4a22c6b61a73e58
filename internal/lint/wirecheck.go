package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// WireCheck closes the protocol surface: every request/reply type the
// cluster can put on the wire must be visible to the three registries
// that keep the §5 traffic model honest. A new RPC that skips any of
// them fails late or silently — rpcnet refuses to send it, WireSize
// falls back to a bare header, the transport buckets the traffic as
// unpriced — and skews the byte accounting and the conformance
// checker's cost comparison against the paper's tables.
//
// Within the protocol package it checks that every struct type with a
// Kind() (request) or RespKind() (reply) method:
//
//  1. has a case in the WireSize type switch, so simnet's byte-level
//     §5 accounting prices it instead of counting a bare header;
//  2. has a case in the type switch of the AppendMessage wire codec,
//     so rpcnet can put it on the wire (the codec's decode switch is
//     keyed by kind tag and checked by the codec conformance test);
//  3. (requests) has its kind string in the KindOps pricing table
//     that maps each request kind to the §5 operation classes whose
//     cost formulas cover its traffic — the conformance checker
//     rejects traffic from unpriced kinds.
//
// Stale KindOps entries (a priced kind with no message type) are
// reported too, so the table and the type set can never drift apart
// in either direction.
var WireCheck = &Analyzer{
	Name:  "wirecheck",
	Topic: "wire",
	Doc: "every protocol request/reply type must be priced in WireSize, " +
		"encoded by AppendMessage, and (requests) mapped in the KindOps " +
		"§5 pricing table",
	Run: runWireCheck,
}

// wireMsg is one request or reply type found in the package.
type wireMsg struct {
	name    *types.TypeName
	request bool   // has Kind(); false means RespKind()
	kind    string // Kind() literal, requests only ("" if unresolvable)
}

func runWireCheck(p *Pass) {
	if !pkgHasElement(p.Types, "protocol") {
		return
	}
	msgs := collectWireMsgs(p)
	if len(msgs) == 0 {
		return
	}

	sized, haveWireSize := typeSwitchCases(p, "WireSize")
	encoded, haveCodec := typeSwitchCases(p, "AppendMessage")
	priced, kindKeys, haveKindOps := kindOpsKeys(p)

	first := msgs[0].name.Pos()
	if !haveWireSize {
		p.Reportf(first, "package declares protocol messages but no WireSize function: simnet's §5 byte accounting cannot price them")
	}
	if !haveCodec {
		p.Reportf(first, "package declares protocol messages but no AppendMessage codec: rpcnet cannot put them on the wire")
	}
	if !haveKindOps {
		p.Reportf(first, "package declares protocol messages but no KindOps pricing table: the §5 conformance checker cannot attribute their traffic")
	}

	for _, m := range msgs {
		if haveWireSize && !sized[m.name] {
			p.Reportf(m.name.Pos(),
				"protocol message %s has no WireSize case: §5 byte accounting will undercount it as a bare header", m.name.Name())
		}
		if haveCodec && !encoded[m.name] {
			p.Reportf(m.name.Pos(),
				"protocol message %s has no case in the AppendMessage encode switch: rpcnet cannot put it on the wire", m.name.Name())
		}
		if m.request && haveKindOps {
			if m.kind == "" {
				p.Reportf(m.name.Pos(),
					"protocol request %s has a non-literal Kind(): wirecheck cannot tie it to the KindOps §5 pricing table", m.name.Name())
			} else if _, ok := priced[m.kind]; !ok {
				p.Reportf(m.name.Pos(),
					"request kind %q (%s) is missing from the KindOps §5 pricing table: its traffic would skew the conformance model unattributed", m.kind, m.name.Name())
			}
		}
	}

	// Reverse direction: a priced kind must name a live request type.
	if haveKindOps {
		kinds := make(map[string]bool)
		for _, m := range msgs {
			if m.request {
				kinds[m.kind] = true
			}
		}
		for _, key := range kindKeys {
			if !kinds[key.kind] {
				p.Reportf(key.pos,
					"KindOps prices kind %q but no request type declares it: stale pricing entries hide real coverage gaps", key.kind)
			}
		}
	}
}

// collectWireMsgs finds the package's message types in declaration
// order: named struct types with a Kind() string or RespKind() string
// method.
func collectWireMsgs(p *Pass) []wireMsg {
	var msgs []wireMsg
	kindLits := kindLiterals(p)
	scope := p.Types.Scope()
	// Walk declarations in source order (scope.Names is sorted
	// alphabetically; report order follows diagnostics sorting anyway).
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			switch m := named.Method(i); m.Name() {
			case "Kind":
				msgs = append(msgs, wireMsg{name: tn, request: true, kind: kindLits[tn.Name()]})
			case "RespKind":
				msgs = append(msgs, wireMsg{name: tn})
			}
		}
	}
	return msgs
}

// kindLiterals maps receiver type name -> the string literal returned
// by its Kind method, for methods of the one-line `return "kind"` form.
func kindLiterals(p *Pass) map[string]string {
	lits := make(map[string]string)
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Kind" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := recvBaseName(obj)
			if recv == "" {
				continue
			}
			for _, stmt := range fd.Body.List {
				ret, ok := stmt.(*ast.ReturnStmt)
				if !ok || len(ret.Results) != 1 {
					continue
				}
				if tv, ok := p.Info.Types[ret.Results[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
					lits[recv] = constant.StringVal(tv.Value)
				}
			}
		}
	}
	return lits
}

// typeSwitchCases collects the named types that appear as cases of the
// type switch inside the package's function of the given name
// (WireSize, AppendMessage).
func typeSwitchCases(p *Pass, fn string) (map[*types.TypeName]bool, bool) {
	cases := make(map[*types.TypeName]bool)
	fd := findFuncDecl(p, fn)
	if fd == nil {
		return nil, false
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		clause, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		for _, e := range clause.List {
			t := p.Info.TypeOf(e)
			if t == nil {
				continue
			}
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				cases[named.Obj()] = true
			}
		}
		return true
	})
	return cases, true
}

// kindKey is one string key of the KindOps map literal.
type kindKey struct {
	kind string
	pos  token.Pos
}

// kindOpsKeys collects the string keys of the package-level KindOps
// map literal.
func kindOpsKeys(p *Pass) (map[string]bool, []kindKey, bool) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
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
					if name.Name != "KindOps" || i >= len(vs.Values) {
						continue
					}
					lit, ok := ast.Unparen(vs.Values[i]).(*ast.CompositeLit)
					if !ok {
						continue
					}
					priced := make(map[string]bool)
					var keys []kindKey
					for _, elt := range lit.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						tv, ok := p.Info.Types[kv.Key]
						if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
							continue
						}
						kind := constant.StringVal(tv.Value)
						priced[kind] = true
						keys = append(keys, kindKey{kind: kind, pos: kv.Key.Pos()})
					}
					return priced, keys, true
				}
			}
		}
	}
	return nil, nil, false
}

// findFuncDecl returns the package's top-level function declaration
// with the given name, or nil.
func findFuncDecl(p *Pass, name string) *ast.FuncDecl {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}
