// Command docscheck is the repository's documentation gate, run by the CI
// docs job. It enforces two invariants and exits non-zero on any
// violation:
//
//  1. Markdown link integrity: every relative link target in README.md,
//     DESIGN.md, ROADMAP.md, CHANGES.md and PAPERS.md must exist (external
//     links are not fetched — CI must not depend on the network).
//
//  2. Godoc coverage: every exported identifier in internal/cluster,
//     internal/fleet, internal/metrics, internal/obs, internal/policy and
//     internal/telemetry, in the internal/sim stepping surface (stepper.go)
//     and in the internal/trace zoo registry (zoo.go) must carry a doc
//     comment, so `go doc` stays a complete reference for them.
//
// Its tests keep two more (exports_test.go, go/types scans): every
// exported function and method under internal/ has a non-test caller, and
// every exported field of an exported …Config struct a non-test writer.
//
// Usage: go run ./cmd/docscheck [repo-root]
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// markdownFiles are the repo-root documents whose links are checked.
var markdownFiles = []string{"README.md", "DESIGN.md", "ROADMAP.md", "CHANGES.md", "PAPERS.md"}

// godocTargets maps a checked directory to an optional file filter (empty
// = every non-test file in the package).
var godocTargets = []struct {
	dir  string
	file string
}{
	{dir: "internal/cluster"},
	{dir: "internal/fleet"},
	{dir: "internal/metrics"},
	{dir: "internal/obs"},
	{dir: "internal/policy"},
	{dir: "internal/sim", file: "stepper.go"},
	{dir: "internal/telemetry"},
	{dir: "internal/trace", file: "zoo.go"},
}

// linkPattern matches inline markdown links [text](target).
var linkPattern = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	fails := 0
	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "docscheck: "+format+"\n", args...)
		fails++
	}

	for _, md := range markdownFiles {
		checkLinks(root, md, fail)
	}
	for _, tgt := range godocTargets {
		checkGodoc(root, tgt.dir, tgt.file, fail)
	}

	if fails > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", fails)
		os.Exit(1)
	}
	fmt.Println("docscheck: markdown links and godoc coverage OK")
}

// checkLinks verifies every relative link in the markdown file resolves to
// an existing file or directory.
func checkLinks(root, name string, fail func(string, ...interface{})) {
	raw, err := os.ReadFile(filepath.Join(root, name))
	if err != nil {
		fail("%s: %v", name, err)
		return
	}
	for _, m := range linkPattern.FindAllStringSubmatch(string(raw), -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
			continue // external; not fetched
		}
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue // intra-document anchor
		}
		if _, err := os.Stat(filepath.Join(root, target)); err != nil {
			fail("%s: broken link target %q", name, m[1])
		}
	}
}

// checkGodoc parses every (non-test) file of the package directory and
// reports exported package-level declarations and exported methods that
// lack a doc comment.
func checkGodoc(root, dir, onlyFile string, fail func(string, ...interface{})) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), func(fi os.FileInfo) bool {
		if strings.HasSuffix(fi.Name(), "_test.go") {
			return false
		}
		return onlyFile == "" || fi.Name() == onlyFile
	}, parser.ParseComments)
	if err != nil {
		fail("%s: %v", dir, err)
		return
	}
	where := func(pos token.Pos) string {
		p := fset.Position(pos)
		return fmt.Sprintf("%s/%s:%d", dir, filepath.Base(p.Filename), p.Line)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							kind = "method"
						}
						fail("%s: exported %s %s has no doc comment", where(d.Pos()), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					checkGenDecl(d, where, fail)
				}
			}
		}
	}
}

// checkGenDecl reports undocumented exported names in a const/var/type
// declaration. A doc comment on either the declaration (covers the whole
// const/var block) or the individual spec satisfies the check.
func checkGenDecl(d *ast.GenDecl, where func(token.Pos) string, fail func(string, ...interface{})) {
	for _, spec := range d.Specs {
		switch sp := spec.(type) {
		case *ast.TypeSpec:
			if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil {
				fail("%s: exported type %s has no doc comment", where(sp.Pos()), sp.Name.Name)
			}
		case *ast.ValueSpec:
			documented := sp.Doc != nil || d.Doc != nil
			for _, name := range sp.Names {
				if name.IsExported() && !documented {
					fail("%s: exported %s %s has no doc comment", where(sp.Pos()), d.Tok, name.Name)
				}
			}
		}
	}
}
