package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// creditFields are the credit/pre-post accounting fields of the flow
// control state (core.VC, core.Pool, core.Ring and their mirrors).
// Every unit of credit motion must flow through the owning type's
// methods — the audited piggyback/ECM paths, Take/Processed/
// OnLimitEvent for the shared pool, or Reserve/SeenHead/Arrived/
// Consumed/TakeHead for the ring — so that the conservation invariants
// checked by CheckInvariants and the ibdebug assertions stay
// trustworthy. inUse is the pool's in-flight descriptor count; the
// ring's head/tail counters ARE its credit state (free slots =
// slots - (tail - headSeen)), so a stray write to either silently
// forges or destroys ring credit. occ/occHWM are an endpoint's
// outstanding-send occupancy (chdev keeps the high-water mark beside the
// endpoint's queue of posted sends, mutated only via noteOut), and rr is
// a round-robin cursor — a write from outside its owner's methods breaks
// selection determinism.
var creditFields = map[string]bool{
	"credits": true, "owed": true, "posted": true,
	"backlog": true, "shrinkDebt": true, "inUse": true,
	"head": true, "tail": true, "headSeen": true, "headSent": true,
	"occ": true, "occHWM": true, "rr": true,
}

// CreditMut flags direct writes (assignment, ++/--, compound ops, or
// taking the address) to credit-accounting fields from outside the
// declaring type's methods.
var CreditMut = &Analyzer{
	Name: "creditmut",
	Doc: "forbid writes to credit/pre-post counter fields from outside the credit manager's methods; " +
		"all credit motion goes through the audited accounting API (DecideEager, AddCredits, TakePiggyback, ...)",
	Run: runCreditMut,
}

func runCreditMut(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			var recv *types.Named
			body := ast.Node(decl)
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fd.Body == nil {
					continue
				}
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					recv = recvNamed(pass.TypesInfo, fd.Recv.List[0].Type)
				}
				body = fd.Body
			}
			checkCreditWrites(pass, body, recv)
		}
	}
	return nil
}

// checkCreditWrites reports credit-field writes under n whose owning type
// is not recv (the enclosing method's receiver, or nil in plain
// functions). Function literals inherit the enclosing receiver: a closure
// inside a VC method is still the manager.
func checkCreditWrites(pass *Pass, n ast.Node, recv *types.Named) {
	report := func(pos token.Pos, verb string, sel *ast.SelectorExpr, owner *types.Named) {
		pass.Reportf(pos,
			"%s credit field %s.%s outside %s's methods; use the credit accounting API",
			verb, owner.Obj().Name(), sel.Sel.Name, owner.Obj().Name())
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, owner := creditFieldSel(pass, lhs); owner != nil && !sameNamed(owner, recv) {
					report(lhs.Pos(), "write to", sel, owner)
				}
			}
		case *ast.IncDecStmt:
			if sel, owner := creditFieldSel(pass, n.X); owner != nil && !sameNamed(owner, recv) {
				report(n.Pos(), "write to", sel, owner)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if sel, owner := creditFieldSel(pass, n.X); owner != nil && !sameNamed(owner, recv) {
					report(n.Pos(), "taking the address of", sel, owner)
				}
			}
		}
		return true
	})
}

// creditFieldSel reports whether e selects a credit-accounting field, and
// if so returns the selector and the named type that declares it.
func creditFieldSel(pass *Pass, e ast.Expr) (*ast.SelectorExpr, *types.Named) {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, nil
	}
	if !creditFields[s.Obj().Name()] {
		return nil, nil
	}
	named := namedOf(s.Recv())
	if named == nil {
		return nil, nil
	}
	return sel, named
}

func sameNamed(a, b *types.Named) bool {
	return a != nil && b != nil && a.Obj() == b.Obj()
}
