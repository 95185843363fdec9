package lint

import (
	"go/ast"
	"go/types"
)

// wallclockFuncs are the package time functions that read or wait on the
// wall clock. time.Duration arithmetic and constants stay legal — only
// observing real time is a determinism leak.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Wallclock forbids wall-clock reads everywhere in the module except the
// explicitly allowlisted sites (Policy.WallclockExemptFiles).
// Deterministic code takes time as data: engine steps, service ticks and
// campaign grids advance logical clocks (internal/clock, service tick
// counters) driven by the scenario seed, never by the host scheduler. A
// new time.Now in a deterministic package must either be removed or claim
// an allowlist entry in internal/lint/policy.go — a loud, reviewed event.
var Wallclock = &Analyzer{
	Name:      "wallclock",
	Directive: "wallclock",
	Doc: "forbid time.Now/Since/Sleep and friends outside the allowlist (the telemetry sink, " +
		"netrun's network boundary): deterministic code takes time via logical clocks and " +
		"seeded schedules, not the host's",
	Run: runWallclock,
}

func runWallclock(pass *Pass) error {
	for ident, obj := range pass.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallclockFuncs[fn.Name()] {
			continue
		}
		pos := pass.Pkg.Fset.Position(ident.Pos())
		if pass.Policy.WallclockExemptFiles[pass.Pkg.RelFile(pos)] {
			continue
		}
		pass.Reportf(ident.Pos(), "time.%s reads the wall clock in %s: deterministic code takes time as data (logical clocks, tick counters); allowlist the file in internal/lint/policy.go if timing is the payload",
			fn.Name(), pass.Pkg.Name)
	}
	return nil
}

// importsPackage reports whether file imports path.
func importsPackage(file *ast.File, path string) *ast.ImportSpec {
	for _, imp := range file.Imports {
		if imp.Path != nil && imp.Path.Value == `"`+path+`"` {
			return imp
		}
	}
	return nil
}
