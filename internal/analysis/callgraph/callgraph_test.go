package callgraph_test

import (
	"fmt"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

var (
	edgeRe   = regexp.MustCompile(`(^|\s)edge "([^"]*)"`)
	noedgeRe = regexp.MustCompile(`noedge "([^"]*)"`)
)

// nodeName renders a node for expectation matching: literals collapse
// to "lit" so fixture comments stay line-number independent.
func nodeName(n *callgraph.Node) string {
	if n.Lit != nil {
		return "lit"
	}
	return n.Name()
}

// TestFixtureEdges builds the graph over the fixture package and
// checks the edge/noedge expectations in both directions: every `edge`
// comment must name an existing edge (weakened resolution fails), and
// every `noedge` pair must stay absent (over-approximation beyond the
// documented conservatism fails).
func TestFixtureEdges(t *testing.T) {
	modRoot, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(modRoot, "internal", "analysis", "testdata", "src", "callgraph")
	pkg, err := analysis.LoadDir(modRoot, dir)
	if err != nil {
		t.Fatal(err)
	}
	g := callgraph.Build([]*callgraph.Unit{pkg.Unit()})

	got := make(map[string]bool)   // "caller -> callee kind"
	pairs := make(map[string]bool) // "caller -> callee", any kind
	for _, n := range g.Nodes() {
		for _, e := range g.Out(n) {
			pair := fmt.Sprintf("%s -> %s", nodeName(e.Caller), nodeName(e.Callee))
			got[pair+" "+e.Kind.String()] = true
			pairs[pair] = true
		}
	}

	var edges, noedges []string
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				for _, m := range edgeRe.FindAllStringSubmatch(c.Text, -1) {
					edges = append(edges, m[2])
				}
				for _, m := range noedgeRe.FindAllStringSubmatch(c.Text, -1) {
					noedges = append(noedges, m[1])
				}
			}
		}
	}
	if len(edges) == 0 || len(noedges) == 0 {
		t.Fatalf("fixture must carry both edge and noedge expectations (got %d/%d)", len(edges), len(noedges))
	}
	for _, want := range edges {
		if !got[want] {
			t.Errorf("expected edge missing from graph: %q", want)
		}
	}
	for _, absent := range noedges {
		if pairs[absent] {
			t.Errorf("edge %q exists but fixture asserts it must not", absent)
		}
	}
}

// TestGoEdgesSkippable asserts the kind tag that lets lockorder ignore
// cross-goroutine edges survives graph construction.
func TestGoEdgesSkippable(t *testing.T) {
	modRoot, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(modRoot, "internal", "analysis", "testdata", "src", "callgraph")
	pkg, err := analysis.LoadDir(modRoot, dir)
	if err != nil {
		t.Fatal(err)
	}
	g := callgraph.Build([]*callgraph.Unit{pkg.Unit()})
	for _, n := range g.Nodes() {
		if n.Decl == nil || n.Decl.Name.Name != "Spawn" {
			continue
		}
		for _, e := range g.Out(n) {
			if e.Kind != callgraph.KindGo {
				t.Errorf("edge out of Spawn has kind %s, want go", e.Kind)
			}
		}
		return
	}
	t.Fatal("Spawn not found in graph")
}
