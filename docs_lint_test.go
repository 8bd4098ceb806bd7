package hotgauge

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestInternalPackageDocs is the docs lint: every internal/ package
// must carry a doc.go whose package comment says what the package
// models (CI runs this via `go test`, so a new package without docs
// fails the build).
func TestInternalPackageDocs(t *testing.T) {
	var pkgDirs []string
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		matches, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil {
			return err
		}
		if len(matches) > 0 {
			pkgDirs = append(pkgDirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgDirs) < 15 {
		t.Fatalf("found only %d internal packages; lint walk is broken", len(pkgDirs))
	}

	for _, dir := range pkgDirs {
		docPath := filepath.Join(dir, "doc.go")
		if _, err := os.Stat(docPath); err != nil {
			t.Errorf("package %s lacks a doc.go with package documentation", dir)
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, docPath, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Errorf("%s: %v", docPath, err)
			continue
		}
		if f.Doc == nil {
			t.Errorf("%s has no package comment attached to the package clause", docPath)
			continue
		}
		text := f.Doc.Text()
		want := "Package " + f.Name.Name
		if !strings.HasPrefix(text, want) {
			t.Errorf("%s: package comment must start with %q", docPath, want)
		}
		if len(text) < 120 {
			t.Errorf("%s: package comment is too thin (%d chars) to document what the package models", docPath, len(text))
		}
	}
}

// TestOperationsDocCoversAllFlags keeps docs/OPERATIONS.md honest: every
// flag cmd/hotgauged defines must be documented there as `-name`, so a
// new daemon flag cannot ship without its operator documentation.
func TestOperationsDocCoversAllFlags(t *testing.T) {
	flags := cmdFlags(t, "hotgauged")
	if len(flags) < 15 {
		t.Fatalf("found only %d hotgauged flags; the flag scan is broken: %v", len(flags), flags)
	}
	doc, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatalf("docs/OPERATIONS.md must exist and document every hotgauged flag: %v", err)
	}
	text := string(doc)
	for name := range flags {
		if !strings.Contains(text, "`-"+name+"`") && !strings.Contains(text, "`-"+name+" ") {
			t.Errorf("docs/OPERATIONS.md does not document the hotgauged flag -%s", name)
		}
	}
}

// TestDocFlagTablesMatchBinaries is the reverse direction: every
// `-flag` in a flag table of README.md or docs/OPERATIONS.md must be
// registered by the binary that table documents, so a flag deleted from
// a binary cannot linger in the docs. OPERATIONS.md documents
// cmd/hotgauged throughout; README.md's "Campaign service daemon"
// section documents cmd/hotgauged and its other tables cmd/hotgauge.
func TestDocFlagTablesMatchBinaries(t *testing.T) {
	registered := map[string]map[string]bool{
		"hotgauge":  cmdFlags(t, "hotgauge"),
		"hotgauged": cmdFlags(t, "hotgauged"),
	}
	rowRe := regexp.MustCompile("^\\|\\s*`-([A-Za-z0-9-]+)[` ]")
	checked := 0
	for _, doc := range []string{"README.md", filepath.Join("docs", "OPERATIONS.md")} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		section := ""
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "## ") {
				section = strings.TrimPrefix(line, "## ")
				continue
			}
			m := rowRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			cmd := "hotgauge"
			if doc != "README.md" || section == "Campaign service daemon" {
				cmd = "hotgauged"
			}
			if !registered[cmd][m[1]] {
				t.Errorf("%s (%q) documents -%s, which cmd/%s does not register", doc, section, m[1], cmd)
			}
			checked++
		}
	}
	if checked < 30 {
		t.Fatalf("checked only %d flag-table rows; the table scan is broken", checked)
	}
}

// flagRegistrars are the flag package functions that define a flag: the
// plain forms take the name first, the *Var forms after the target.
var flagRegistrars = map[string]bool{
	"Bool": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true,
	"String": true, "Float64": true, "Duration": true, "Func": true, "BoolFunc": true,
	"BoolVar": true, "IntVar": true, "Int64Var": true, "UintVar": true, "Uint64Var": true,
	"StringVar": true, "Float64Var": true, "DurationVar": true, "Var": true, "TextVar": true,
}

// cmdFlags parses cmd/<name>/main.go and returns the name of every flag
// it defines through the flag package.
func cmdFlags(t *testing.T, name string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("cmd", name, "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !flagRegistrars[sel.Sel.Name] {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if len(call.Args) <= arg {
			return true
		}
		lit, ok := call.Args[arg].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if flagName := strings.Trim(lit.Value, `"`); flagName != "" {
			flags[flagName] = true
		}
		return true
	})
	return flags
}

// TestDocLinksResolve walks every Markdown doc and checks each relative
// link: the target file must exist, and a #fragment must match a
// heading in the target (GitHub anchor style). External links and bare
// code spans are ignored.
func TestDocLinksResolve(t *testing.T) {
	docs := []string{"README.md", "ARCHITECTURE.md"}
	entries, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, entries...)
	if len(entries) < 2 {
		t.Fatalf("expected docs/OPERATIONS.md and docs/HTTP_API.md under docs/, found %v", entries)
	}

	linkRe := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, frag, _ := strings.Cut(target, "#")
			resolved := doc // same-file fragment
			if path != "" {
				resolved = filepath.Join(filepath.Dir(doc), path)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: link %q points at a missing file", doc, target)
					continue
				}
			}
			if frag != "" && !hasAnchor(t, resolved, frag) {
				t.Errorf("%s: link %q points at a missing anchor #%s in %s", doc, target, frag, resolved)
			}
		}
	}
}

// hasAnchor reports whether a Markdown file contains a heading whose
// GitHub-style slug equals frag.
func hasAnchor(t *testing.T, path, frag string) bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		return false // non-Markdown target; only files with headings can anchor
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		if anchorSlug(strings.TrimLeft(line, "# ")) == frag {
			return true
		}
	}
	return false
}

// anchorSlug approximates GitHub's heading-to-anchor rule: lowercase,
// drop everything but letters/digits/spaces/hyphens, spaces to hyphens.
func anchorSlug(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// TestNoStrayPackageComments keeps each package's documentation in its
// doc.go: another file carrying a second package comment would win the
// godoc lottery nondeterministically.
func TestNoStrayPackageComments(t *testing.T) {
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "doc.go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.PackageClauseOnly)
		if perr != nil {
			return perr
		}
		if f.Doc != nil && strings.HasPrefix(f.Doc.Text(), "Package ") {
			t.Errorf("%s carries a package comment; move it into the package's doc.go", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
