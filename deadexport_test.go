package concilium_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportAllow lists the exported functions and methods under
// internal/ and cmd/ that no non-test code outside examples/ calls, each
// with the reason it stays. Every reason starts with the prefix of its
// group (deadExportGroups). TestNoDeadExports fails on a dead export
// missing here, on an entry that is no longer dead or no longer exists,
// and on a reason outside the groups.
var deadExportAllow = map[string]string{
	"internal/stats.NewPoissonBinomial":           "test oracle: exact Poisson-binomial law the §3.1 occupancy model is checked against",
	"internal/stats.PoissonBinomial.ExactPMF":     "test oracle: exact PMF the normal approximation is checked against",
	"internal/stats.PoissonBinomial.Variance":     "test oracle: exact variance the normal approximation is checked against",
	"internal/stats.KolmogorovSmirnov":            "test oracle: goodness-of-fit test for the density test and samplers",
	"internal/stats.KSCriticalValue":              "test oracle: critical value paired with KolmogorovSmirnov",
	"internal/stats.Beta.Variance":                "test oracle: theoretical variance the Beta sampler is checked against",
	"internal/core.CompactSystem.AppendCanonical": "test oracle: canonical state stream the golden and determinism digests hash",
	"internal/tomography.BuildTree":               "test oracle: from-scratch tree TestPatchTreeEqualsBuildTree holds PatchTree to",

	"internal/id.MustParse":      "cross-package test fixture: literal identifiers; with Parse, tested by TestParseRoundTrip, TestParseErrors",
	"internal/topology.NewGraph": "cross-package test fixture: hand-built graphs; tested by TestNewGraphRejectsEmpty",

	"internal/tomography.NewProber":                   "§3.3 tomography, awaiting item 9: per-tree probing",
	"internal/tomography.Prober.LightweightProbe":     "§3.3 tomography, awaiting item 9: lightweight probing",
	"internal/tomography.Escalate":                    "§3.3 tomography, awaiting item 9: escalation",
	"internal/tomography.ShouldEscalate":              "§3.3 tomography, awaiting item 9: escalation",
	"internal/tomography.DefaultEscalationConfig":     "§3.3 tomography, awaiting item 9: escalation",
	"internal/tomography.VerifyFeedback":              "§3.3 tomography, awaiting item 9: feedback",
	"internal/tomography.DefaultFeedbackConfig":       "§3.3 tomography, awaiting item 9: feedback",
	"internal/tomography.NewCollective":               "§3.3 tomography, awaiting item 9: collective probing",
	"internal/tomography.Collective.ProbeOnce":        "§3.3 tomography, awaiting item 9: collective probing",
	"internal/tomography.Collective.MultiForestLinks": "§3.3 tomography, awaiting item 9: collective probing",
	"internal/tomography.Collective.Savings":          "§3.3 tomography, awaiting item 9: collective probing",
	"internal/netsim.WithLossModel":                   "§3.3 tomography, awaiting item 9: lossy probe paths",
}

// deadExportGroups are the reasons an uncalled export may stay: a
// reference implementation tests compare against, a fixture tests in
// other packages build inputs with, or a §3 mechanism that a named
// ROADMAP item is to run or delete. A reason outside them fails the
// test, so the allow-list cannot regrow under ad-hoc reasons.
var deadExportGroups = []string{
	"test oracle: ",
	"cross-package test fixture: ",
	"§3.3 tomography, awaiting item 9: ",
}

// TestNoDeadExports lists every exported function and method declared
// in a non-test file under internal/ or cmd/ that no non-test file
// references, and compares the list with deadExportAllow. bench/ counts
// as a caller; examples/ does not, because an example walks through the
// program rather than being part of it, so an export only an example
// calls is dead. The scan parses only, without type checking:
// a package-level function is referenced by its name inside its own
// package or by a selector on an import of that package; a method is
// referenced by any selector of its name (an interface call cannot be
// told apart from a direct one), or by being named in an interface
// type. A method whose name a standard-library interface calls
// implicitly (String, Error, ...) counts as referenced.
func TestNoDeadExports(t *testing.T) {
	dead := deadExports(t)
	for _, name := range dead {
		if _, ok := deadExportAllow[name]; !ok {
			t.Errorf("%s is exported but nothing outside _test.go files calls it: call it from the program, delete it, or add it to deadExportAllow with its reason", name)
		}
	}
	for name, reason := range deadExportAllow {
		if !slices.Contains(dead, name) {
			t.Errorf("deadExportAllow entry %s is stale: it is called outside tests or no longer exists", name)
		}
		if !slices.ContainsFunc(deadExportGroups, func(g string) bool { return strings.HasPrefix(reason, g) }) {
			t.Errorf("deadExportAllow entry %s: reason %q starts with none of the groups %q", name, reason, deadExportGroups)
		}
	}
}

// implicitMethods are method names standard-library interfaces call
// without a selector in this repository's source.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true,
}

// deadExports returns the sorted names ("dir.Func" or "dir.Type.Method")
// of exported functions and methods under internal/ and cmd/ that no
// non-test file references.
func deadExports(t *testing.T) []string {
	t.Helper()
	type decl struct {
		name string // reported name
		dir  string
		fn   string // function or method name
	}
	var funcs, methods []decl
	calledIn := map[string]map[string]bool{} // dir -> function names referenced from its package
	selected := map[string]bool{}            // selector names referenced anywhere
	mark := func(dir, name string) {
		if calledIn[dir] == nil {
			calledIn[dir] = map[string]bool{}
		}
		calledIn[dir][name] = true
	}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "bench"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(p))
			// Imports by local name, for qualified references.
			imports := map[string]string{}
			for _, is := range f.Imports {
				ip, _ := strconv.Unquote(is.Path.Value)
				local := path.Base(ip)
				if is.Name != nil {
					local = is.Name.Name
				}
				imports[local] = ip
			}
			visit := func(n ast.Node) bool { return visitRef(n, dir, imports, mark, selected) }
			exported := strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					ast.Inspect(d, visit)
					continue
				}
				if exported && fd.Name.IsExported() {
					if fd.Recv == nil {
						funcs = append(funcs, decl{dir + "." + fd.Name.Name, dir, fd.Name.Name})
					} else {
						methods = append(methods, decl{dir + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name, dir, fd.Name.Name})
					}
				}
				// The declared name is not a reference to itself.
				if fd.Recv != nil {
					ast.Inspect(fd.Recv, visit)
				}
				ast.Inspect(fd.Type, visit)
				if fd.Body != nil {
					ast.Inspect(fd.Body, visit)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var dead []string
	for _, d := range funcs {
		if !calledIn[d.dir][d.fn] {
			dead = append(dead, d.name)
		}
	}
	for _, d := range methods {
		if !selected[d.fn] && !implicitMethods[d.fn] {
			dead = append(dead, d.name)
		}
	}
	sort.Strings(dead)
	return dead
}

// visitRef records the references n makes: a selector's or interface
// method's name, and a function named bare (same package) or through an
// import of this repository ("concilium/<dir>").
func visitRef(n ast.Node, dir string, imports map[string]string, mark func(dir, name string), selected map[string]bool) bool {
	switch n := n.(type) {
	case *ast.InterfaceType:
		for _, m := range n.Methods.List {
			for _, name := range m.Names {
				selected[name.Name] = true
			}
		}
	case *ast.SelectorExpr:
		selected[n.Sel.Name] = true
		if x, ok := n.X.(*ast.Ident); ok {
			if p, ok := imports[x.Name]; ok && strings.HasPrefix(p, "concilium/") {
				mark(strings.TrimPrefix(p, "concilium/"), n.Sel.Name)
				return false
			}
		}
		// The selected name is not a bare reference; only X is walked.
		ast.Inspect(n.X, func(m ast.Node) bool { return visitRef(m, dir, imports, mark, selected) })
		return false
	case *ast.Ident:
		mark(dir, n.Name)
	}
	return true
}

// recvType names a method's receiver type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
