package lint

import (
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerDeterminismTaint propagates wall-clock and global-rand taint
// through the call graph: only the allowlisted wall-clock boundary
// files may *transitively* reach time.Now, the time.Timer/Ticker rearm
// methods, or the global math/rand generator. The intraprocedural
// determinism check catches direct calls; this pass catches the
// launderers — a wrapper around time.Now, a helper that stores time.Now
// as a function value, a utility three calls up from the clock read.
//
// Taint rules:
//
//   - a function declared in an allowlisted file is a sanctioned
//     boundary: it may be tainted and does not propagate (callers of
//     netem.WallClock methods are the design, not a leak);
//   - a direct nondeterminism call covered by a //lint:allow
//     determinism suppression is likewise sanctioned and does not seed
//     taint (the justification is the boundary documentation);
//   - a *reference* to a nondeterministic function or to a tainted
//     declared function (f := time.Now; handlers[k] = wrapper) taints
//     the referencing function — the value can fire anywhere.
//
// Findings carry the full laundering chain (scenario.stamp →
// util.nowMillis → time.Now).
var AnalyzerDeterminismTaint = &ProgramAnalyzer{
	Name: "determinism-taint",
	Doc:  "only allowlisted wall-clock boundary files may transitively reach time.Now or global math/rand",
	Run:  runDeterminismTaint,
}

// taintCause records why a function is tainted: the call/reference site
// and either the stdlib source label (terminal) or the tainted callee.
type taintCause struct {
	pos    token.Pos
	label  string      // terminal stdlib source label ("time.Now"), or ""
	callee *types.Func // tainted declared callee, or nil at a terminal
	ref    bool        // tainted via function-value reference, not a call
}

func runDeterminismTaint(pp *ProgramPass) {
	prog := pp.Prog
	allow := pp.Config.WallClockAllow
	if allow == nil {
		allow = DefaultWallClockAllow
	}
	boundary := func(fn *types.Func) bool {
		d := prog.decls[fn]
		return d == nil || progFileAllowed(prog, d.decl.Pos(), allow)
	}
	// A site covered by a determinism or determinism-taint suppression is
	// a sanctioned source/edge: it neither seeds nor propagates taint.
	sanctioned := func(pos token.Pos) bool {
		a := pp.Sanctioned("determinism", pos)
		b := pp.Sanctioned("determinism-taint", pos)
		return a || b
	}

	tainted := map[*types.Func]*taintCause{}
	var queue []*types.Func

	// Seed: direct calls to and references of nondeterministic stdlib
	// functions from non-boundary functions, unless the site carries a
	// determinism suppression.
	for _, fn := range prog.declList {
		if boundary(fn) {
			continue
		}
		for _, e := range prog.calls[fn] {
			label, _, ok := nondetCallee(e.Callee)
			if !ok || sanctioned(e.Pos) {
				continue
			}
			if tainted[fn] == nil {
				tainted[fn] = &taintCause{pos: e.Pos, label: label}
				queue = append(queue, fn)
			}
		}
		if tainted[fn] != nil {
			continue
		}
		for _, r := range prog.funcRefs[fn] {
			label, _, ok := nondetCallee(r.Func)
			if !ok || sanctioned(r.Pos) {
				continue
			}
			tainted[fn] = &taintCause{pos: r.Pos, label: label, ref: true}
			queue = append(queue, fn)
			break
		}
	}

	// Reverse adjacency (calls and references), deterministic order.
	type revEdge struct {
		caller *types.Func
		pos    token.Pos
		ref    bool
	}
	rev := map[*types.Func][]revEdge{}
	for _, fn := range prog.declList {
		if boundary(fn) {
			continue // boundary callers are sanctioned consumers
		}
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

	// Propagate: a non-boundary function calling or referencing a
	// tainted non-boundary function is tainted. Boundary callees never
	// entered the tainted set, so propagation stops at the allowlist.
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, e := range rev[fn] {
			if tainted[e.caller] != nil {
				continue
			}
			if sanctioned(e.pos) {
				continue
			}
			tainted[e.caller] = &taintCause{pos: e.pos, callee: fn, ref: e.ref}
			queue = append(queue, e.caller)
		}
	}

	// Report, one finding per tainted function, chain down to the
	// stdlib source.
	for _, fn := range prog.declList {
		c := tainted[fn]
		if c == nil {
			continue
		}
		chain := []string{funcLabel(fn)}
		how := "calls"
		if c.ref {
			how = "captures a reference to"
		}
		for cur := c; ; {
			if cur.callee == nil {
				chain = append(chain, cur.label)
				break
			}
			chain = append(chain, funcLabel(cur.callee))
			cur = tainted[cur.callee]
		}
		pp.Reportf(c.pos, chain,
			"%s %s and so transitively reaches %s outside the wall-clock boundary (%s); thread a sim/detector clock or a seeded *rand.Rand instead, or move the boundary into the allowlist",
			funcLabel(fn), how, chain[len(chain)-1], strings.Join(chain, " → "))
	}
}

// progFileAllowed reports whether pos sits in a file matching one of
// the allowlisted path suffixes.
func progFileAllowed(prog *Program, pos token.Pos, allow []string) bool {
	name := strings.ReplaceAll(prog.Fset.Position(pos).Filename, "\\", "/")
	for _, suf := range allow {
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
}
