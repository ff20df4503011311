package lint

import "go/types"

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
// even though it suppresses no literal finding.
var AnalyzerNoallocClosure = &ProgramAnalyzer{
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

func runNoallocClosure(pp *ProgramPass) {
	prog := pp.Prog
	var roots []*types.Func
	for _, fn := range prog.declList {
		if HasNoallocDirective(prog.decls[fn].decl) {
			roots = append(roots, fn)
		}
	}
	if len(roots) == 0 {
		return
	}
	check := pp.Analyzer.Name
	w := newChainWalk(prog, roots)
	for len(w.queue) > 0 {
		fn := w.queue[0]
		w.queue = w.queue[1:]
		d := prog.decls[fn]
		if d == nil || d.decl.Body == nil {
			continue
		}
		// A doc-comment suppression marks the whole function an accepted
		// allocation boundary: skip its body and its callees. Nothing else
		// cuts traversal — a site-level allow justifies one finding, not a
		// subtree.
		if pp.SanctionedDecl(check, d.decl) {
			continue
		}
		// Body allocation sites: an annotated function answers for its own
		// body, an unannotated one is reported with the chain that reaches it.
		where, reached := "noalloc function "+d.decl.Name.Name, ""
		if !HasNoallocDirective(d.decl) {
			where = "function " + d.decl.Name.Name
			reached = " — reachable from noalloc root: " + w.chain(fn) + "; make it allocation-free or annotate it //hbvet:noalloc"
		}
		for _, v := range collectNoallocViolations(d.pkg.Info, d.decl, where) {
			if !pp.Sanctioned(check, v.Pos) {
				pp.Reportf(v.Pos, w.chainList(fn), "%s%s", v.Message, reached)
			}
		}
		// Calls the analyzer cannot resolve cut the proof short.
		for _, pos := range prog.dynCalls[fn] {
			if pp.Sanctioned(check, pos) {
				continue
			}
			pp.Reportf(pos, w.chainList(fn),
				"dynamic call through a function value inside the noalloc closure (%s); the callee set is unprovable — restructure to a static call or justify with //lint:allow noalloc-closure",
				w.chain(fn))
		}
		for _, e := range prog.calls[fn] {
			if prog.decls[e.Callee] != nil {
				if !w.visited[e.Callee] {
					w.visited[e.Callee] = true
					w.parent[e.Callee] = fn
					w.queue = append(w.queue, e.Callee)
				}
				continue
			}
			if knownAllocCallee(e.Callee) && !pp.Sanctioned(check, e.Pos) {
				chain := append(w.chainList(fn), funcLabel(e.Callee))
				pp.Reportf(e.Pos, chain,
					"call to allocating %s inside the noalloc closure: %s → %s",
					funcLabel(e.Callee), w.chain(fn), funcLabel(e.Callee))
			}
		}
	}
}
