package chdev

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// schemeNames are the identifiers through which code learns which flow
// control scheme it is running under: the core.Params predicates, the
// kind constants, the ring accessors of core.VC, and the concrete
// provisioner types.
var schemeNames = map[string]bool{
	"RingChannel": true, "SharedPool": true, "UserLevel": true,
	"KindHardware": true, "KindStatic": true, "KindDynamic": true, "KindShared": true, "KindRDMA": true,
	"RingIn": true, "RingOut": true,
	"connProvisioner": true, "poolProvisioner": true, "ringProvisioner": true,
}

// schemeMentions parses one source file of the package and lists every
// place it names a scheme: an identifier from schemeNames, or a .Kind
// selected from anything but the trace package (a core.Params). Comments
// do not count.
func schemeMentions(t *testing.T, file string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var hits []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if schemeNames[n.Name] {
				hits = append(hits, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), n.Name))
			}
		case *ast.SelectorExpr:
			if pkg, ok := n.X.(*ast.Ident); n.Sel.Name == "Kind" && !(ok && pkg.Name == "trace") {
				hits = append(hits, fmt.Sprintf("%s: .Kind", fset.Position(n.Sel.Pos())))
			}
		}
		return true
	})
	return hits
}

// TestDeviceIsSchemeBlind holds the device (device.go and the three files
// split from it), its progress engine and the audit to the two seams:
// every flow control decision is a call on the connection's core.VC,
// every transport shape a call on the provisioner. None of these files
// may ask which scheme is running. provision.go is where the shapes live,
// so it must trip the same scan — that keeps the scan itself honest.
func TestDeviceIsSchemeBlind(t *testing.T) {
	for _, file := range []string{"device.go", "endpoints.go", "rndv.go", "return.go", "progress.go", "audit.go"} {
		if hits := schemeMentions(t, file); len(hits) > 0 {
			t.Errorf("%s names a scheme; ask the VC or the provisioner instead:\n\t%s",
				file, strings.Join(hits, "\n\t"))
		}
	}
	shapes := strings.Join(schemeMentions(t, "provision.go"), "\n")
	for _, want := range []string{"ringProvisioner", "KindRDMA", "UserLevel", "RingOut", ".Kind"} {
		if !strings.Contains(shapes, want) {
			t.Errorf("the scan found no %s in provision.go: it is not seeing what it should", want)
		}
	}
}
