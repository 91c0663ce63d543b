package clusterdes_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// boundaryStep matches one numbered step of ARCHITECTURE.md's boundary
// list: "N. **Title** (`call`...". The call is written the way tick
// makes it, without the receiver: `reconcile`, `merger.MergeInterval`.
var boundaryStep = regexp.MustCompile("(?m)^(\\d+)\\. \\*\\*[^*]+\\*\\* \\(`([^`]+)`")

// documentedBoundary returns the calls ARCHITECTURE.md's serial-section
// contract lists, in order, checking the list is numbered 1..n.
func documentedBoundary(t *testing.T) []string {
	t.Helper()
	doc, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	start := strings.Index(text, "## The serial-section contract")
	if start < 0 {
		t.Fatal("ARCHITECTURE.md has no serial-section contract")
	}
	text = text[start:]
	if end := strings.Index(text[1:], "\n## "); end >= 0 {
		text = text[:end+1]
	}
	var calls []string
	for i, m := range boundaryStep.FindAllStringSubmatch(text, -1) {
		if n, _ := strconv.Atoi(m[1]); n != i+1 {
			t.Fatalf("boundary step %q is numbered %s, want %d", m[2], m[1], i+1)
		}
		calls = append(calls, m[2])
	}
	if len(calls) == 0 {
		t.Fatal("ARCHITECTURE.md lists no boundary steps")
	}
	return calls
}

// tickCalls returns every call Fleet.tick makes, in source order, each
// written without the receiver: f.fed.Sync(...) is "fed.Sync".
func tickCalls(t *testing.T) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "clusterdes.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var tick *ast.FuncDecl
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "tick" && fd.Recv != nil {
			tick = fd
		}
	}
	if tick == nil {
		t.Fatal("clusterdes.go has no tick method")
	}
	recv := tick.Recv.List[0].Names[0].Name + "."
	var calls []string
	ast.Inspect(tick.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, strings.TrimPrefix(render(c.Fun), recv))
		}
		return true
	})
	return calls
}

// render writes a callee expression as dotted source text, "" for
// anything that is not an identifier or a selector chain.
func render(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base := render(x.X); base != "" {
			return base + "." + x.Sel.Name
		}
	}
	return ""
}

// TestArchitectureBoundaryOrder pins ARCHITECTURE.md's numbered
// boundary list to the code: every step's call must appear in tick, and
// in the documented order.
func TestArchitectureBoundaryOrder(t *testing.T) {
	calls := tickCalls(t)
	pos := -1
	for i, want := range documentedBoundary(t) {
		at := -1
		for j, c := range calls {
			if c == want {
				at = j
				break
			}
		}
		switch {
		case at < 0:
			t.Errorf("step %d: tick never calls %s", i+1, want)
		case at < pos:
			t.Errorf("step %d: tick calls %s before the step listed above it", i+1, want)
		default:
			pos = at
		}
	}
}
