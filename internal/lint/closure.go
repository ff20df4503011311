package lint

import (
	"go/types"
	"slices"
	"sort"
	"strings"
)

// AnalyzerNoallocClosure proves the //hbvet:noalloc contract over the
// whole call graph: every annotated root, and every function reachable
// from one, must be free of the likely allocation sites listed in
// noalloc.go. Call resolution is the Program call graph: static
// calls exact, interface calls over the program's implementing type
// set, and calls through function values reported as explicit
// "dynamic call" findings — the closure cannot be proven past a callee
// the analyzer cannot name, so such sites must be restructured or
// carry a //lint:allow noalloc-closure justification.
//
// Violations carry the full call chain from the nearest annotated root
// (sim.StepAll → core.dispatch → fmt.Sprintf). Calls out of the module
// are checked against a curated table of known-allocating standard
// library functions; stdlib calls not in the table are trusted silent —
// the compiler escape-budget gate (hbvet -escape) is the backstop for
// allocations no source heuristic can see.
//
// A //lint:allow noalloc-closure directive in a function declaration's
// doc comment marks that function an accepted allocation boundary: its
// body and everything reachable only through it are excluded from the
// proof (the conformance observers, the real-network transports). The
// doc-comment position is what distinguishes a boundary — site-level
// directives inside the body suppress individual findings only and
// never cut traversal, even when they cover the declaration's first
// line. A boundary directive counts as live for unused-suppression
// even though it suppresses no literal finding. determinism draws its
// wall-clock boundary by the same rule.
var AnalyzerNoallocClosure = &Analyzer{
	Name: "noalloc-closure",
	Doc:  "every function reachable from a //hbvet:noalloc root must be allocation-free or annotated",
	Run:  runNoallocClosure,
}

// allocStdlibPkgs lists external packages whose every function
// allocates (fmt formats into fresh storage on all paths).
var allocStdlibPkgs = map[string]bool{
	"fmt": true,
}

// allocStdlibFuncs lists external package-level functions known to
// allocate on their ordinary path.
var allocStdlibFuncs = map[string]bool{
	"errors.New":          true,
	"errors.Join":         true,
	"sort.Slice":          true,
	"sort.SliceStable":    true,
	"strings.Join":        true,
	"strings.Repeat":      true,
	"strings.Replace":     true,
	"strings.ReplaceAll":  true,
	"strings.Split":       true,
	"strings.SplitN":      true,
	"strings.Fields":      true,
	"strings.ToUpper":     true,
	"strings.ToLower":     true,
	"strconv.Itoa":        true,
	"strconv.FormatInt":   true,
	"strconv.FormatUint":  true,
	"strconv.FormatFloat": true,
	"strconv.Quote":       true,
	"strconv.Unquote":     true,
	"bytes.Join":          true,
	"bytes.Repeat":        true,
	"bytes.Clone":         true,
	"bytes.NewBuffer":     true,
	"bytes.NewReader":     true,
	"slices.Clone":        true,
	"slices.Concat":       true,
	"slices.Insert":       true,
	"slices.Collect":      true,
	"maps.Clone":          true,
	// maps.Keys is absent deliberately: it returns an iterator with no
	// backing store.
	"math/rand.New":       true,
	"math/rand.NewSource": true,
	"math/rand.Perm":      true,
	"math/rand/v2.Perm":   true,
}

// allocStdlibMethods lists external methods known to allocate, keyed
// "pkgpath.Type.Method".
var allocStdlibMethods = map[string]bool{
	"strings.Builder.String":      true,
	"strings.Builder.Grow":        true,
	"strings.Builder.WriteString": true,
	"strings.Builder.Write":       true,
	"bytes.Buffer.String":         true,
	// bytes.Buffer.Bytes is absent deliberately: it aliases the internal
	// buffer without copying.
	"time.Time.String":     true,
	"time.Time.Format":     true,
	"time.Duration.String": true,
	"math/rand.Rand.Perm":  true,
}

// knownAllocCallee classifies a callee with no body in the program.
func knownAllocCallee(f *types.Func) bool {
	if f.Pkg() == nil {
		return false
	}
	path := f.Pkg().Path()
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Recv() == nil {
		return allocStdlibPkgs[path] || allocStdlibFuncs[path+"."+f.Name()]
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return allocStdlibMethods[path+"."+named.Obj().Name()+"."+f.Name()]
}

// runNoallocClosure is a multi-source BFS over the call graph. parent
// records the tree for chain reconstruction; order is deterministic
// (roots in sorted label order, edges in source order).
func runNoallocClosure(p *Pass) {
	prog := p.Prog
	var queue []*types.Func
	for _, fn := range prog.declList {
		if hasNoallocDirective(prog.decls[fn].decl) {
			queue = append(queue, fn)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return funcLabel(queue[i]) < funcLabel(queue[j]) })
	parent := map[*types.Func]*types.Func{}
	visited := map[*types.Func]bool{}
	for _, fn := range queue {
		visited[fn] = true
	}
	// chain is the call chain from the nearest root down to fn, outermost
	// first.
	chain := func(fn *types.Func) []string {
		var labels []string
		for f := fn; f != nil; f = parent[f] {
			labels = append(labels, funcLabel(f))
		}
		slices.Reverse(labels)
		return labels
	}
	check := p.Analyzer.Name
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		d := prog.decls[fn]
		if d.decl.Body == nil {
			continue
		}
		// A doc-comment suppression marks the whole function an accepted
		// allocation boundary: skip its body and its callees. Nothing else
		// cuts traversal — a site-level allow justifies one finding, not a
		// subtree.
		if p.SanctionedDecl(check, d.decl) {
			continue
		}
		// Body allocation sites: an annotated function answers for its own
		// body, an unannotated one is reported with the chain that reaches it.
		where, reached := "noalloc function "+d.decl.Name.Name, ""
		if !hasNoallocDirective(d.decl) {
			where = "function " + d.decl.Name.Name
			reached = " — reachable from noalloc root: " + strings.Join(chain(fn), " → ") + "; make it allocation-free or annotate it //hbvet:noalloc"
		}
		for _, v := range collectNoallocViolations(d.pkg.Info, d.decl, where) {
			if !p.Sanctioned(check, v.Pos) {
				p.Reportf(v.Pos, chain(fn), "%s%s", v.Message, reached)
			}
		}
		// Calls the analyzer cannot resolve cut the proof short.
		for _, pos := range prog.dynCalls[fn] {
			if p.Sanctioned(check, pos) {
				continue
			}
			p.Reportf(pos, chain(fn),
				"dynamic call through a function value inside the noalloc closure (%s); the callee set is unprovable — restructure to a static call or justify with //lint:allow noalloc-closure",
				strings.Join(chain(fn), " → "))
		}
		for _, e := range prog.calls[fn] {
			if prog.decls[e.Callee] != nil {
				if !visited[e.Callee] {
					visited[e.Callee] = true
					parent[e.Callee] = fn
					queue = append(queue, e.Callee)
				}
				continue
			}
			if knownAllocCallee(e.Callee) && !p.Sanctioned(check, e.Pos) {
				c := append(chain(fn), funcLabel(e.Callee))
				p.Reportf(e.Pos, c, "call to allocating %s inside the noalloc closure: %s", funcLabel(e.Callee), strings.Join(c, " → "))
			}
		}
	}
}
