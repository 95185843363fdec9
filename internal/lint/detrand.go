package lint

import (
	"go/types"
)

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// convenience functions drawing from the shared global source. rand.New,
// rand.NewSource, rand.NewZipf and every *rand.Rand method remain legal —
// an explicit generator seeded from the scenario/campaign seed is exactly
// how randomness is supposed to flow; rand.New(sim.NewLazySource(seed)),
// the repository's own generator with rand.NewSource(seed)'s stream, is
// the pattern the deterministic packages use.
var globalRandFuncs = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"UintN": true, "Uint": true, "Uint32N": true, "Uint64N": true, "N": true,
}

// DetRand forbids unseeded randomness in deterministic packages: the
// global math/rand source (process-global, seeded from runtime entropy
// since Go 1.20) and crypto/rand (entropy by construction). Every random
// draw must flow from a scenario or campaign seed through an explicit
// *rand.Rand handed down the call chain — that is what makes an execution
// a pure function of (protocol, daemon, seed, topology).
var DetRand = &Analyzer{
	Name:      "detrand",
	Directive: "rand",
	Doc: "forbid the global math/rand top-level functions and crypto/rand in deterministic packages: " +
		"randomness must flow from scenario/campaign seeds through an explicit *rand.Rand",
	Run: runDetRand,
}

func runDetRand(pass *Pass) error {
	if !pass.Policy.Deterministic[pass.Pkg.Path] {
		return nil
	}
	for _, file := range pass.Pkg.Files {
		if imp := importsPackage(file, "crypto/rand"); imp != nil {
			pass.Reportf(imp.Pos(), "crypto/rand imported in deterministic package %s: entropy cannot be replayed; draw from the seeded *rand.Rand instead", pass.Pkg.Name)
		}
	}
	for ident, obj := range pass.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		path := fn.Pkg().Path()
		if path != "math/rand" && path != "math/rand/v2" {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			continue // *rand.Rand methods are the approved pattern
		}
		if !globalRandFuncs[fn.Name()] {
			continue
		}
		pass.Reportf(ident.Pos(), "global rand.%s in deterministic package %s draws from the process-global source: thread a seeded *rand.Rand instead", fn.Name(), pass.Pkg.Name)
	}
	return nil
}
