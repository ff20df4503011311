package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerDeterminism keeps every run a pure function of its seeds: no
// function outside the wall-clock boundary may reach a wall-clock read
// (time.Now and friends, the re-arm methods of time's timer types) or
// the global math/rand generator — directly, or through any chain of
// calls and function-value references. One stray time.Now or rand.Intn
// breaks byte-identical replay silently, and so does a wrapper around
// one three calls up.
//
// Seeded randomness is fine: methods on a *rand.Rand constructed via
// rand.New(rand.NewSource(seed)) are not flagged, only the package-level
// convenience functions that share the unseeded global generator.
//
// Rules:
//
//   - every direct call or reference (f := time.Now) of a source is a
//     finding at its own position;
//   - a function tainted only transitively — it calls or references a
//     tainted function — is one finding, at the edge that taints it,
//     carrying the laundering chain down to the source (scenario.stamp →
//     util.nowMillis → time.Now);
//   - a site or edge covered by a //lint:allow determinism directive is
//     sanctioned: it seeds and propagates nothing;
//   - a function whose doc comment carries //lint:allow determinism is a
//     wall-clock boundary (netem.WallClock, the commands' run timings):
//     its sites are not reported and taint does not propagate through
//     it, by the rule noalloc-closure uses for allocation boundaries. The
//     directive counts as live only when the function reaches a source.
var AnalyzerDeterminism = &Analyzer{
	Name: "determinism",
	Doc:  "nothing outside a //lint:allow determinism boundary may reach a wall-clock read or global math/rand, directly or through the call graph",
	Run:  checkDeterminism,
}

// wallClockFuncs are the time package functions that read or depend on
// the physical clock. Pure constructors and conversions (time.Duration,
// time.Unix, time.Date) are fine.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"Sleep":     true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// wallClockMethods are the methods on package time receiver types that
// re-arm or drive physical timers. Keyed "Type.Method".
var wallClockMethods = map[string]bool{
	"Timer.Reset":  true,
	"Ticker.Reset": true,
}

// seededRandFuncs are the math/rand package-level functions that build
// explicitly seeded state rather than touching the global generator.
var seededRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2 constructors
	"NewPCG":     true,
	"NewChaCha8": true,
}

// clockAdvice ends every wall-clock finding.
const clockAdvice = "; use the sim/detector clock, or make the function a wall-clock boundary with //lint:allow determinism in its doc comment"

// nondetSource classifies a function object as a nondeterminism source
// when *any* use of it depends on the wall clock or the global rand
// generator, returning a display label ("time.Now", "(*time.Timer).Reset",
// "rand.Intn") and the message of a direct site.
func nondetSource(obj *types.Func) (label, msg string, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	sig := obj.Type().(*types.Signature)
	switch obj.Pkg().Path() {
	case "time":
		if sig.Recv() == nil {
			if wallClockFuncs[obj.Name()] {
				label = "time." + obj.Name()
				return label, "wall-clock read " + label + " breaks deterministic replay" + clockAdvice, true
			}
			return "", "", false
		}
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed && wallClockMethods[named.Obj().Name()+"."+obj.Name()] {
			label = "(*time." + named.Obj().Name() + ")." + obj.Name()
			return label, "wall-clock method " + label + " re-arms a physical timer and breaks deterministic replay" + clockAdvice, true
		}
	case "math/rand", "math/rand/v2":
		if sig.Recv() == nil && !seededRandFuncs[obj.Name()] {
			label = "rand." + obj.Name()
			return label, "global " + label + " uses the shared unseeded generator; construct a *rand.Rand from an explicit seed parameter", true
		}
	}
	return "", "", false
}

// taintCause records why a function is tainted: the site, and either the
// stdlib source label (a direct site) or the tainted declared callee.
type taintCause struct {
	pos    token.Pos
	label  string      // stdlib source label ("time.Now") at a direct site
	callee *types.Func // tainted declared callee; nil at a direct site
	ref    bool        // through a function-value reference, not a call
}

func checkDeterminism(p *Pass) {
	prog := p.Prog
	check := p.Analyzer.Name
	boundary := func(fn *types.Func) bool { return p.SanctionedDecl(check, prog.decls[fn].decl) }
	tainted := map[*types.Func]*taintCause{}
	var queue []*types.Func

	// Seed: every unsanctioned direct call and reference of a source is a
	// finding; the first one taints its function.
	for _, fn := range prog.declList {
		type site struct {
			taintCause
			msg string
		}
		var sites []site
		for _, e := range prog.calls[fn] {
			if label, msg, ok := nondetSource(e.Callee); ok {
				sites = append(sites, site{taintCause{pos: e.Pos, label: label}, msg})
			}
		}
		for _, r := range prog.funcRefs[fn] {
			if label, msg, ok := nondetSource(r.Func); ok {
				sites = append(sites, site{taintCause{pos: r.Pos, label: label, ref: true}, msg})
			}
		}
		if len(sites) == 0 || boundary(fn) {
			continue
		}
		for _, s := range sites {
			if p.Sanctioned(check, s.pos) {
				continue
			}
			p.Reportf(s.pos, []string{funcLabel(fn), s.label}, "%s", s.msg)
			if tainted[fn] == nil {
				tainted[fn] = &s.taintCause
				queue = append(queue, fn)
			}
		}
	}

	// Package-level variable initializers run outside every declaration,
	// so the call graph does not see them; their direct sites are findings
	// all the same.
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); !ok || gd.Tok != token.VAR {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						fn, _ := pkg.Info.Uses[id].(*types.Func)
						if _, msg, ok := nondetSource(fn); ok && !p.Sanctioned(check, id.Pos()) {
							p.Reportf(id.Pos(), nil, "%s", msg)
						}
					}
					return true
				})
			}
		}
	}

	// Propagate breadth-first over reversed calls and references, in
	// source order, so every chain is a shortest one.
	type revEdge struct {
		caller *types.Func
		pos    token.Pos
		ref    bool
	}
	rev := map[*types.Func][]revEdge{}
	for _, fn := range prog.declList {
		for _, e := range prog.calls[fn] {
			if prog.decls[e.Callee] != nil {
				rev[e.Callee] = append(rev[e.Callee], revEdge{caller: fn, pos: e.Pos})
			}
		}
		for _, r := range prog.funcRefs[fn] {
			if prog.decls[r.Func] != nil {
				rev[r.Func] = append(rev[r.Func], revEdge{caller: fn, pos: r.Pos, ref: true})
			}
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, e := range rev[fn] {
			if tainted[e.caller] != nil || boundary(e.caller) || p.Sanctioned(check, e.pos) {
				continue
			}
			tainted[e.caller] = &taintCause{pos: e.pos, callee: fn, ref: e.ref}
			queue = append(queue, e.caller)
		}
	}

	// Report each transitively tainted function once, chain down to the
	// stdlib source; directly tainted ones were reported at their sites.
	for _, fn := range prog.declList {
		c := tainted[fn]
		if c == nil || c.callee == nil {
			continue
		}
		chain := []string{funcLabel(fn)}
		cur := c
		for ; cur.callee != nil; cur = tainted[cur.callee] {
			chain = append(chain, funcLabel(cur.callee))
		}
		chain = append(chain, cur.label)
		how := "calls"
		if c.ref {
			how = "captures a reference to"
		}
		p.Reportf(c.pos, chain,
			"%s %s and so transitively reaches %s outside the wall-clock boundary (%s); thread a sim/detector clock or a seeded *rand.Rand instead, or make a caller a wall-clock boundary with //lint:allow determinism in its doc comment",
			funcLabel(fn), how, cur.label, strings.Join(chain, " → "))
	}
}
