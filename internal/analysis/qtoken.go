package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// QTokenAnalyzer enforces qtoken discipline (paper §4.2): every qtoken
// minted by an asynchronous PDPIX call (push, pop, accept, connect, or any
// other producer returning core.QToken) represents an outstanding
// operation whose completion someone must redeem. A token assigned to _,
// dropped as a bare expression, or bound to a variable that is never
// passed onward (to Wait/WaitAny/WaitAll or any helper), returned, or
// stored is an operation whose completion — and, for pops, whose received
// buffers — is stranded forever. The chaos soak (PR 4) detects stranded
// tokens at run time on the paths it happens to drive; this analyzer
// rejects them on every path at build time.
//
// Since the interprocedural engine (summary.go) the redemption test is
// call-graph-aware: a token handed to a module helper that only reads it
// (ParamBorrows) is NOT redeemed — stranding a token through a logging or
// inspection helper is caught. Wait/WaitAny/WaitAll/TryTake always redeem
// by PDPIX contract (sacredConsumers), whatever their bodies look like.
// Helpers that redeem a token parameter on some same-class exit paths but
// strand it on others (ParamMixed) are reported where they are declared.
func QTokenAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "qtoken",
		Doc:  "qtokens from push/pop/accept/connect must be waited, returned, or stored",
	}
	a.Run = func(p *Pass) { runQToken(p) }
	return a
}

const qtokenHint = "redeem the qtoken with Wait/WaitAny/WaitAll, return it, or store it for a later wait"

func runQToken(p *Pass) {
	if strings.HasSuffix(p.Pkg.Path, "internal/core") {
		return // the token table is the redemption authority for its own ops
	}
	s := p.Mod.summaryState()
	if s.trackedNamed[trackQTok] == nil {
		return
	}
	isTok := s.matcher(trackQTok)
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		for _, prod := range findProducers(info, file, isTok, nil) {
			callee := exprString(prod.call.Fun)
			switch {
			case prod.dropped:
				p.Reportf(prod.call.Pos(), qtokenHint,
					"qtoken returned by %s is dropped", callee)
			case prod.blank:
				p.Reportf(prod.call.Pos(), qtokenHint,
					"qtoken returned by %s is assigned to _ and never redeemed", callee)
			case prod.obj != nil:
				checkQTokenRedemption(p, prod, callee)
			}
		}
		checkQTokParamModes(p, file, isTok)
	}
}

// checkQTokenRedemption verifies the token reaches at least one consuming
// use, resolving helper calls against their parameter summaries: passing
// the token to a borrowing helper does not redeem it.
func checkQTokenRedemption(p *Pass, prod producer, callee string) {
	if prod.fn == nil {
		return // package scope: stored
	}
	var borrowed string
	for _, u := range p.Mod.adjustedUses(p.Pkg, prod.fn, prod.obj, trackQTok) {
		if u.consuming {
			return
		}
		if u.borrowed {
			borrowed = u.how
		}
	}
	if borrowed != "" {
		p.Reportf(prod.call.Pos(), qtokenHint,
			"qtoken %q returned by %s is never redeemed: %s", prod.obj.Name(), callee, borrowed)
		return
	}
	p.Reportf(prod.call.Pos(), qtokenHint,
		"qtoken %q returned by %s is never waited, returned, or stored", prod.obj.Name(), callee)
}

// checkQTokParamModes reports helpers that treat a token parameter
// inconsistently: redeemed on some same-class exit paths, stranded on
// others. Borrowing (inspection) and transfer (redeem-or-store) are both
// legitimate contracts; mixing them strands ops on the leaky paths.
func checkQTokParamModes(p *Pass, file *ast.File, isTok func(types.Type) bool) {
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		for i, pi := range p.Mod.ParamModes(fn) {
			if pi.Mode != ParamMixed {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if !isTok(sig.Params().At(i).Type()) {
				continue // buffer params are the ownership analyzer's business
			}
			name := sig.Params().At(i).Name()
			for _, ret := range pi.Leaks {
				p.Reportf(ret.Pos(), qtokenHint,
					"qtoken parameter %q of %s is redeemed on some paths but stranded on this return path",
					name, fd.Name.Name)
			}
			if pi.FallsOff {
				p.Reportf(fd.Body.Rbrace, qtokenHint,
					"qtoken parameter %q of %s is redeemed on some paths but stranded when the function falls off the end",
					name, fd.Name.Name)
			}
		}
	}
}
