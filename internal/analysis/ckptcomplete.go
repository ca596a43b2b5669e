package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// ckptcomplete enforces the checkpoint completeness contract (DESIGN.md
// §15, §17): every field of a struct that a capture path reads must stay
// in lockstep with the struct's definition. The bug class it catches is
// silent divergence — someone adds a field to Proto or EngineState,
// forgets the matching enc.I64/state line, tests still pass (the digest
// only diverges after a resume), and reproduction breaks weeks later.
//
// Mechanics, in fact form:
//
//   - The declaring package of every named struct type exports a
//     CkptStructFact listing its fields, each with its declared position
//     and any //ckpt:skip <reason> directive found on (or directly above)
//     its declaration.
//   - Every package whose functions sit on a capture path — methods named
//     CaptureState, or any function taking a *checkpoint.Encoder — exports
//     a CkptPkgFact recording (a) which structs that path "checks" and
//     (b) which of their fields it reads. A struct is checked when it is
//     the receiver of a capture method, or when any bound variable of the
//     struct's type (receiver, parameter, local, range variable) has at
//     least one field read inside a capture function. Structs only passed
//     through opaquely (method calls, whole-value copies) are not checked:
//     types like sim.Timer that serialize via accessors stay out of scope
//     on purpose.
//   - Finish unions the coverage from every package (core and netsim both
//     encode packet.Packet fields, from different capture paths) and
//     reports every field of every checked struct that no capture path
//     reads and no //ckpt:skip exempts.
//
// The checkpoint package itself is exempt: its Encoder/Decoder internals
// are the serialization mechanism, not checkpointed state.
var CkptComplete = &Analyzer{
	Name: "ckptcomplete",
	Doc: "every field of a struct read by a CaptureState/encode path must be " +
		"covered by that path or carry //ckpt:skip <reason>",
	Run:    runCkptComplete,
	Finish: finishCkptComplete,
}

// checkpointPkg is the encoder package whose *Encoder parameter marks a
// function as a capture path.
const checkpointPkg = modulePath + "/internal/checkpoint"

// CkptField describes one field of a checkpoint-relevant struct.
type CkptField struct {
	Name   string
	Pos    Pos
	Skip   bool   // //ckpt:skip present
	Reason string // its mandatory reason
}

// CkptStructFact lists the fields of one named struct type, exported by
// its declaring package so capture-path coverage anywhere in the module
// can be diffed against the authoritative definition.
type CkptStructFact struct {
	Fields []CkptField
}

func (*CkptStructFact) AFact() {}

// CkptPkgFact records one package's capture-path coverage: which structs
// its capture functions check, and which fields of each they read.
type CkptPkgFact struct {
	// Checked maps struct key → position of the capture function that
	// checks it (for the diagnostic's "checked at" context).
	Checked map[string]Pos
	// Covered maps struct key → sorted field names read on a capture path.
	Covered map[string][]string
}

func (*CkptPkgFact) AFact() {}

func runCkptComplete(pass *Pass) error {
	if pass.Pkg.Path() == checkpointPkg {
		return nil
	}

	// Phase 1 (declaring side): export the field list of every
	// package-level named struct type, with //ckpt:skip annotations
	// resolved. Reasonless //ckpt:skip is reported here, in the package
	// that owns the directive.
	skipByFile := make(map[*ast.File]map[int]string)
	for _, f := range pass.Files {
		skipByFile[f] = directiveLines(pass.Fset, f, "skip", parseCkptDirective)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if name, reason, ok := parseCkptDirective(c.Text); ok && name == "skip" && reason == "" {
					pass.Reportf(c.Pos(), "//ckpt:skip directive needs a reason")
				}
			}
		}
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok || st.NumFields() == 0 {
			continue
		}
		fact := &CkptStructFact{}
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			pos := pass.Position(fld.Pos())
			cf := CkptField{Name: fld.Name(), Pos: MakePos(pos)}
			for _, f := range pass.Files {
				if pass.Position(f.Pos()).Filename != pos.Filename {
					continue
				}
				if reason, ok := skipByFile[f][pos.Line]; ok && reason != "" {
					cf.Skip, cf.Reason = true, reason
				}
			}
			fact.Fields = append(fact.Fields, cf)
		}
		pass.ExportObjectFact(tn, fact)
	}

	// Phase 2 (capturing side): walk every capture function, recording
	// field reads whose root resolves to a bound variable.
	cov := &CkptPkgFact{Checked: make(map[string]Pos), Covered: make(map[string][]string)}
	covered := make(map[string]map[string]bool)
	check := func(key string, pos Pos) {
		if key == "" {
			return
		}
		if _, ok := cov.Checked[key]; !ok {
			cov.Checked[key] = pos
		}
		if covered[key] == nil {
			covered[key] = make(map[string]bool)
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isCaptureFunc(pass, fd) {
				continue
			}
			fnPos := MakePos(pass.Position(fd.Pos()))
			// The receiver struct of a capture method is checked
			// unconditionally: a CaptureState that reads nothing at all is
			// exactly the bug (every field unencoded), not a pass.
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				if named, ok := deref(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)).(*types.Named); ok {
					if _, isStruct := named.Underlying().(*types.Struct); isStruct {
						check(StructKey(named), fnPos)
					}
				}
			}
			// FuncLits are walked too: sim.Engine.CaptureState does its
			// work through a local `add := func(...)` closure.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				se, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				sel := pass.TypesInfo.Selections[se]
				if sel == nil || sel.Kind() != types.FieldVal || !rootIsBoundVar(pass, se) {
					return true
				}
				// Walk the (possibly promoted) selection path so coverage
				// lands on the struct that declares each traversed field.
				t := sel.Recv()
				for _, idx := range sel.Index() {
					named, _ := deref(t).(*types.Named)
					st, ok := deref(t).Underlying().(*types.Struct)
					if !ok || idx >= st.NumFields() {
						return true
					}
					fld := st.Field(idx)
					if named != nil {
						key := StructKey(named)
						check(key, fnPos)
						covered[key][fld.Name()] = true
					}
					t = fld.Type()
				}
				return true
			})
		}
	}
	for key, fields := range covered {
		names := make([]string, 0, len(fields))
		for n := range fields {
			names = append(names, n)
		}
		sort.Strings(names)
		cov.Covered[key] = names
	}
	if len(cov.Checked) > 0 {
		pass.ExportPackageFact(cov)
	}
	return nil
}

// isCaptureFunc reports whether fd sits on a capture path: a method named
// CaptureState (sim.Engine's takes no Encoder — it returns an EngineState
// value instead), or any function with a *checkpoint.Encoder parameter
// (core's captureState helpers, netsim's capturePacket, ...).
func isCaptureFunc(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Recv != nil && fd.Name.Name == "CaptureState" {
		return true
	}
	if fd.Type.Params != nil {
		for _, p := range fd.Type.Params.List {
			if namedTypeIs(pass.TypesInfo.TypeOf(p.Type), checkpointPkg, "Encoder") {
				return true
			}
		}
	}
	return false
}

// rootIsBoundVar unwinds a selector chain (through selectors, indexing,
// parens, derefs) to its root expression and reports whether that root is
// an identifier naming a non-field variable — a receiver, parameter,
// local, or range variable holding the value being serialized. Roots that
// are call results or global state don't bind a checked struct.
func rootIsBoundVar(pass *Pass, se *ast.SelectorExpr) bool {
	e := ast.Expr(se)
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			v, ok := pass.TypesInfo.Uses[x].(*types.Var)
			return ok && !v.IsField()
		default:
			return false
		}
	}
}

func finishCkptComplete(fp *FinishPass) error {
	// Union checked structs and field coverage across every package's
	// capture paths.
	checked := make(map[string]Pos)
	covered := make(map[string]map[string]bool)
	for _, kf := range fp.AllPackageFacts((*CkptPkgFact)(nil)) {
		pf := kf.Fact.(*CkptPkgFact)
		for key, pos := range pf.Checked {
			if _, ok := checked[key]; !ok {
				checked[key] = pos
			}
			if covered[key] == nil {
				covered[key] = make(map[string]bool)
			}
		}
		for key, fields := range pf.Covered {
			if covered[key] == nil {
				covered[key] = make(map[string]bool)
			}
			for _, f := range fields {
				covered[key][f] = true
			}
		}
	}
	keys := make([]string, 0, len(checked))
	for key := range checked {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		var sf CkptStructFact
		if !fp.ObjectFact(key, &sf) {
			// No field list: a struct outside the module (or without
			// fields). Nothing to diff against.
			continue
		}
		for _, fld := range sf.Fields {
			if fld.Skip || covered[key][fld.Name] {
				continue
			}
			fp.Report(Diagnostic{
				Message: fmt.Sprintf(
					"field %s.%s is reachable from the capture path at %s but never encoded; encode it or mark it //ckpt:skip <reason>",
					prettyKey(key), fld.Name, checked[key]),
				Position: fld.Pos.Position(),
				Suggest:  "//ckpt:skip <why resume is byte-identical without this field>",
			})
		}
	}
	return nil
}

// parseCkptDirective recognizes "//ckpt:skip <reason>".
func parseCkptDirective(text string) (name, reason string, ok bool) {
	if !strings.HasPrefix(text, "//ckpt:skip") {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, "//ckpt:skip")
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", "", false
	}
	return "skip", strings.TrimSpace(rest), true
}
