package lint

// The golden harness: an analysistest-style driver over
// testdata/src/<pkg> (stdlib only — the container pins no
// golang.org/x/tools). Expectations are trailing comments:
//
//	for k := range m { // want "range over map"
//
// Each quoted string is a regexp that must match a diagnostic reported on
// that line; `// want(-1) "re"` binds to the previous line (for
// diagnostics on comment lines, which cannot carry a second comment).
// Every diagnostic must be wanted and every want matched — seeded
// violations prove each analyzer fails on reintroduction, negative cases
// prove it stays quiet, suppression cases prove the directive grammar.

import (
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// goldenStdPackages are the stdlib roots golden packages may import.
var goldenStdPackages = []string{"time", "math/rand", "crypto/rand"}

var (
	stdExportsOnce sync.Once
	stdExports     map[string]string
	stdExportsErr  error
)

// goldenImporter resolves stdlib imports from export data and sibling
// testdata packages from source.
type goldenImporter struct {
	fset  *token.FileSet
	root  string // testdata/src
	std   types.Importer
	cache map[string]*types.Package
}

func (gi *goldenImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := gi.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(gi.root, path)
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := goldenCheck(gi, path, dir)
		if err != nil {
			return nil, err
		}
		gi.cache[path] = pkg.Types
		return pkg.Types, nil
	}
	return gi.std.Import(path)
}

// goldenCheck parses and type-checks one testdata package directory.
func goldenCheck(gi *goldenImporter, path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir, Fset: gi.fset}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(gi.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(e.Name(), "_test.go") {
			pkg.TestFiles = append(pkg.TestFiles, f)
		} else {
			pkg.Files = append(pkg.Files, f)
		}
	}
	pkg.Types, pkg.Info, pkg.TypeErrors = typeCheck(gi.fset, gi, path, pkg.Files)
	if pkg.Name == "" && len(pkg.Files) > 0 {
		pkg.Name = pkg.Files[0].Name.Name
	}
	return pkg, nil
}

// loadGolden loads testdata/src/<name> as an analysis target.
func loadGolden(t *testing.T, name string) *Package {
	t.Helper()
	stdExportsOnce.Do(func() {
		stdExports, stdExportsErr = listExports("", append([]string{}, goldenStdPackages...))
	})
	if stdExportsErr != nil {
		t.Fatalf("resolving stdlib export data: %v", stdExportsErr)
	}
	fset := token.NewFileSet()
	gi := &goldenImporter{
		fset:  fset,
		root:  filepath.Join("testdata", "src"),
		std:   exportImporter(fset, stdExports),
		cache: map[string]*types.Package{},
	}
	pkg, err := goldenCheck(gi, name, filepath.Join(gi.root, name))
	if err != nil {
		t.Fatalf("loading golden package %s: %v", name, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("golden package %s does not type-check: %v", name, pkg.TypeErrors)
	}
	return pkg
}

// want is one expectation: a regexp bound to a file line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`// want(\([+-]?\d+\))?((?:\s+"(?:[^"\\]|\\.)*")+)`)
var wantStrRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// collectWants parses the // want comments of every non-test file.
func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				line := pos.Line
				if m[1] != "" {
					off, err := strconv.Atoi(strings.Trim(m[1], "()"))
					if err != nil {
						t.Fatalf("%s: bad want offset %q", pos, m[1])
					}
					line += off
				}
				for _, q := range wantStrRE.FindAllString(m[2], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s", pos, q)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, s, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: line, re: re})
				}
			}
		}
	}
	return wants
}

// runGolden loads the package, runs the analyzers, and diffs diagnostics
// against the want expectations.
func runGolden(t *testing.T, name string, pol *Policy, opts RunOptions) {
	t.Helper()
	pkg := loadGolden(t, name)
	diags, err := Run([]*Package{pkg}, pol, opts)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, pkg)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// goldenPolicy marks the named golden packages deterministic.
func goldenPolicy(paths ...string) *Policy {
	return &Policy{
		Deterministic:        set(paths...),
		WallclockExemptFiles: map[string]bool{},
	}
}

// listExports resolves patterns to export-data files for every package in
// their dependency closure (shared go list machinery with Load).
func listExports(dir string, patterns []string) (map[string]string, error) {
	lps, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, lp := range lps {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	return exports, nil
}

func TestDetMapGolden(t *testing.T) {
	runGolden(t, "detmap", goldenPolicy("detmap"), RunOptions{Analyzers: []*Analyzer{DetMap}})
}

func TestDetMapIgnoresNonDeterministicPackages(t *testing.T) {
	// The same seeded violations produce nothing outside the audit set.
	pkg := loadGolden(t, "detmap")
	diags, err := Run([]*Package{pkg}, goldenPolicy("someotherpkg"), RunOptions{Analyzers: []*Analyzer{DetMap}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("detmap fired outside the deterministic set: %v", diags)
	}
}

func TestWallclockGolden(t *testing.T) {
	pol := goldenPolicy("wallclock")
	pol.WallclockExemptFiles["allowed.go"] = true
	runGolden(t, "wallclock", pol, RunOptions{Analyzers: []*Analyzer{Wallclock}})
}

func TestDetRandGolden(t *testing.T) {
	runGolden(t, "detrand", goldenPolicy("detrand"), RunOptions{Analyzers: []*Analyzer{DetRand}})
}

func TestHookRetainGolden(t *testing.T) {
	runGolden(t, "hookretain", goldenPolicy("hookretain"), RunOptions{Analyzers: []*Analyzer{HookRetain}})
}

func TestCapabilityGolden(t *testing.T) {
	runGolden(t, "capability", goldenPolicy("capability"), RunOptions{Analyzers: []*Analyzer{Capability}})
}

func TestCapabilityRegistryGolden(t *testing.T) {
	pol := goldenPolicy("capability_registry")
	pol.RegistryPkg = "capability_registry"
	runGolden(t, "capability_registry", pol, RunOptions{Analyzers: []*Analyzer{Capability}})
}

func TestGoroutineGolden(t *testing.T) {
	pol := goldenPolicy("goroutine")
	pol.GoroutineExemptFiles = set("pool.go")
	runGolden(t, "goroutine", pol, RunOptions{Analyzers: []*Analyzer{Goroutine}})
}

func TestGoroutineIgnoresNonDeterministicPackages(t *testing.T) {
	// The same seeded go statements produce nothing outside the audit set.
	pkg := loadGolden(t, "goroutine")
	diags, err := Run([]*Package{pkg}, goldenPolicy("someotherpkg"), RunOptions{Analyzers: []*Analyzer{Goroutine}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("goroutine fired outside the deterministic set: %v", diags)
	}
}

func TestTelemetryGolden(t *testing.T) {
	// A telemetry-style package under both audits at once: the exporter
	// file is goroutine-exempt, the sink file wallclock-exempt, and the
	// collection file proves both exemptions stay file-scoped.
	pol := goldenPolicy("telemetry")
	pol.WallclockExemptFiles["sink.go"] = true
	pol.GoroutineExemptFiles = set("exporter.go")
	runGolden(t, "telemetry", pol, RunOptions{Analyzers: []*Analyzer{Wallclock, Goroutine}})
}

func TestNetrunGolden(t *testing.T) {
	// The networked runtime's policy shape: the whole package is audited
	// as deterministic (the round loop is an execution of the model; the
	// replay oracle pins it), while the transport file owns every clock
	// and the write-pump goroutine. Seeded violations in the round loop
	// prove the exemption stays file-scoped.
	pol := goldenPolicy("netrun")
	pol.WallclockExemptFiles["transport.go"] = true
	pol.GoroutineExemptFiles = set("transport.go")
	runGolden(t, "netrun", pol, RunOptions{Analyzers: []*Analyzer{Wallclock, Goroutine}})
}

func TestSuppressionGolden(t *testing.T) {
	// Full suite + unused-suppression checking: the framework's own
	// diagnostics (unknown directive, missing justification, unused
	// suppression) are golden-tested here.
	runGolden(t, "suppress", goldenPolicy("suppress"), RunOptions{CheckUnused: true})
}

func TestDiagnosticsSorted(t *testing.T) {
	pkg := loadGolden(t, "detmap")
	diags, err := Run([]*Package{pkg}, goldenPolicy("detmap"), RunOptions{Analyzers: []*Analyzer{DetMap}})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		return diags[i].Pos.Line < diags[j].Pos.Line
	}) {
		t.Fatalf("diagnostics not sorted: %v", diags)
	}
}

// TestGOARCHSizes guards the loader's size configuration: SizesFor must
// resolve on this platform or constant arithmetic in checked packages
// could silently differ from the compiler's.
func TestGOARCHSizes(t *testing.T) {
	if types.SizesFor("gc", runtime.GOARCH) == nil {
		t.Fatalf("types.SizesFor(gc, %s) = nil", runtime.GOARCH)
	}
}
