package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
)

// Capability machine-checks the protocol capability contract of DESIGN.md
// §6 and the registry/test-matrix coupling of §8:
//
//  1. A type providing the Flat execution capability (the packed batch
//     kernels, or a Flat() provider hook) must also declare Local (its
//     guard read-sets — the shard-parallel step leans on incremental
//     enabled-set maintenance) and RuleBounded (a static rule-space bound
//     — wrappers pre-intern derived rule spaces with it, which is what
//     keeps rule numbering independent of encounter order).
//
//  2. Every constructor registered in the scenario protocol registry must
//     appear in the differential/conformance test matrix: a protocol that
//     scenarios can name but the worker-equivalence tests never drive is
//     an unchecked determinism claim.
var Capability = &Analyzer{
	Name:      "capability",
	Directive: "capability",
	Doc: "a protocol providing Flat must also provide Local and RuleBounded, and every protocol " +
		"in the scenario registry must be exercised by the differential/conformance test matrix",
	Run: runCapability,
}

func runCapability(pass *Pass) error {
	checkFlatCapabilities(pass)
	if pass.Pkg.Path == pass.Policy.RegistryPkg {
		checkRegistryMatrix(pass)
	}
	return nil
}

// checkFlatCapabilities audits every named type declared in the package.
func checkFlatCapabilities(pass *Pass) {
	scope := pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		ms := methodNames(named)
		// The contract binds protocol types (the values FlatOf/LocalOf
		// inspect), not internal codec helpers a Flat() provider returns:
		// only types carrying the Protocol surface are audited.
		if !ms["EnabledRule"] || !ms["Apply"] {
			continue
		}
		providesFlat := (ms["FlatWords"] && ms["EnabledRuleFlat"] && ms["ApplyFlat"]) || ms["Flat"]
		if !providesFlat {
			continue
		}
		if !ms["Neighbors"] && !ms["Local"] {
			pass.Reportf(tn.Pos(), "%s provides the Flat capability but not Local: declare the guard read-sets (Neighbors or a Local() provider) so incremental enabled-set maintenance stays sound", name)
		}
		if !ms["MaxRule"] {
			pass.Reportf(tn.Pos(), "%s provides the Flat capability but not RuleBounded: declare MaxRule() so wrappers can pre-intern the rule space deterministically", name)
		}
	}
}

// methodNames returns the method-set names of *T (value and pointer
// receivers both included).
func methodNames(named *types.Named) map[string]bool {
	out := map[string]bool{}
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		out[ms.At(i).Obj().Name()] = true
	}
	return out
}

// checkRegistryMatrix cross-references the protocol registry against the
// package's differential/conformance test files.
func checkRegistryMatrix(pass *Pass) {
	names := registryProtocolNames(pass)
	if len(names) == 0 {
		pass.Reportf(pass.Pkg.Files[0].Pos(), "no protocolRegistry literal found in %s: the capability analyzer cannot check the test matrix", pass.Pkg.Path)
		return
	}
	matrix := matrixStringLiterals(pass)
	if len(matrix) == 0 {
		pass.Reportf(pass.Pkg.Files[0].Pos(), "no *differential_test.go / *conformance*_test.go files found in %s: the registered protocols have no worker-equivalence matrix", pass.Pkg.Path)
		return
	}
	for _, n := range names {
		if !matrix[n.name] {
			pass.Reportf(n.pos, "protocol %q is registered but absent from the differential/conformance test matrix: add it to the worker-equivalence tests (its determinism claim is otherwise unchecked)", n.name)
		}
	}
}

// registryName is one name: "..." entry of the protocol registry.
type registryName struct {
	name string
	pos  token.Pos
}

// registryProtocolNames extracts the name: "..." fields of the
// protocolRegistry composite literal.
func registryProtocolNames(pass *Pass) []registryName {
	var out []registryName
	pass.inspect(func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name != "protocolRegistry" {
			return true
		}
		lit, ok := as.Rhs[0].(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, el := range lit.Elts {
			entry, ok := el.(*ast.CompositeLit)
			if !ok {
				continue
			}
			for _, f := range entry.Elts {
				kv, ok := f.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || key.Name != "name" {
					continue
				}
				if bl, ok := kv.Value.(*ast.BasicLit); ok {
					if s, err := strconv.Unquote(bl.Value); err == nil {
						out = append(out, registryName{name: s, pos: kv.Pos()})
					}
				}
			}
		}
		return true
	})
	return out
}

// matrixStringLiterals collects every string literal appearing in the
// package's differential/conformance test files.
func matrixStringLiterals(pass *Pass) map[string]bool {
	out := map[string]bool{}
	for _, f := range pass.Pkg.TestFiles {
		base := filepath.Base(pass.Pkg.Fset.Position(f.Pos()).Filename)
		if !strings.Contains(base, "differential") && !strings.Contains(base, "conformance") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if bl, ok := n.(*ast.BasicLit); ok && bl.Kind == token.STRING {
				if s, err := strconv.Unquote(bl.Value); err == nil {
					out[s] = true
				}
			}
			return true
		})
	}
	return out
}
