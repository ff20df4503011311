// Command hbvet runs the repository's project-specific static analyzers
// (internal/lint) over the tree:
//
//	hbvet ./...                      # everything (from the module root)
//	hbvet ./internal/sim ./internal/mc
//	hbvet -check determinism,map-order ./...
//	hbvet -json ./...                # machine-readable findings (CI artifact)
//	hbvet -escape                    # compiler escape-budget gate
//	hbvet -escape -update            # regenerate the escape budget
//	hbvet -list                      # describe the checks
//
// The per-package checks enforce the conventions the checker and
// simulator correctness hangs on: deterministic replay (no wall-clock
// or global rand), map-iteration-order hygiene, the
// ta.Successors/AppendKey buffer-reuse contract, and atomic-vs-plain
// access discipline. On top of them run the interprocedural checks over
// the module call graph: noalloc-closure (every //hbvet:noalloc root and
// every function reachable from one must be free of likely allocation
// sites, with full call chains in findings), determinism-taint (only the
// allowlisted wall-clock boundary may transitively reach time.Now or
// global math/rand), and unused-suppression (//lint:allow directives
// that suppress nothing are findings). -escape bypasses the AST layer
// entirely: it diffs the compiler's own heap diagnostics for the
// hot-path packages against the checked-in escape_budget.txt.
//
// Findings print as file:line:col: message [check]; exit status is 1
// when any finding survives //lint:allow suppression, 2 on usage or
// load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	var (
		checks  = flag.String("check", "", "comma-separated subset of checks to run (default: all)")
		list    = flag.Bool("list", false, "list the available checks and exit")
		root    = flag.String("root", "", "module root (default: nearest go.mod above the working directory)")
		jsonOut = flag.Bool("json", false, "emit findings as schema-versioned JSON on stdout")
		escape  = flag.Bool("escape", false, "run the compiler escape-budget gate instead of the AST checks")
		update  = flag.Bool("update", false, "with -escape: regenerate the budget file instead of diffing")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-20s %s\n", a.Name, a.Doc)
		}
		for _, a := range lint.ProgramAnalyzers() {
			fmt.Printf("%-20s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-20s %s\n", "escape-budget", "compiler heap diagnostics for hot-path packages must match escape_budget.txt (-escape)")
		return
	}

	moduleRoot := *root
	if moduleRoot == "" {
		var err error
		moduleRoot, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "hbvet:", err)
			os.Exit(2)
		}
	}

	var (
		n   int
		err error
	)
	if *escape {
		n, err = runEscape(moduleRoot, *update, *jsonOut)
	} else {
		patterns := flag.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		n, err = run(moduleRoot, patterns, splitChecks(*checks), *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbvet:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "hbvet: %d finding(s)\n", n)
		os.Exit(1)
	}
}

func splitChecks(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, c := range strings.Split(s, ",") {
		if c = strings.TrimSpace(c); c != "" {
			out = append(out, c)
		}
	}
	return out
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// run loads the packages as one program, runs the per-package and
// interprocedural analyzers, and prints the findings, returning how
// many there were.
func run(root string, patterns, checks []string, jsonOut bool) (int, error) {
	ld, err := lint.NewLoader(root)
	if err != nil {
		return 0, err
	}
	pkgs, err := ld.Load(patterns...)
	if err != nil {
		return 0, err
	}
	findings := lint.NewProgram(pkgs).Run(lint.Config{Checks: checks})
	relativize(root, findings)
	return len(findings), emit(findings, jsonOut)
}

// runEscape diffs (or regenerates, with update) the compiler escape
// budget for the hot-path packages.
func runEscape(root string, update, jsonOut bool) (int, error) {
	sites, err := lint.EscapeSites(root, lint.HotPathPackages)
	if err != nil {
		return 0, err
	}
	budgetPath := filepath.Join(root, lint.EscapeBudgetFile)
	if update {
		if err := lint.WriteEscapeBudget(budgetPath, sites); err != nil {
			return 0, err
		}
		fmt.Printf("hbvet: wrote %s: %d heap-allocation site classes across %d packages\n",
			lint.EscapeBudgetFile, len(sites), len(lint.HotPathPackages))
		return 0, nil
	}
	budget, err := lint.LoadEscapeBudget(budgetPath)
	if err != nil {
		return 0, fmt.Errorf("loading escape budget (run `hbvet -escape -update` to create it): %w", err)
	}
	findings := lint.DiffEscapeBudget(budget, sites)
	return len(findings), emit(findings, jsonOut)
}

// relativize rewrites absolute finding paths to module-relative ones.
func relativize(root string, findings []lint.Finding) {
	for i := range findings {
		if r, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			findings[i].Pos.Filename = filepath.ToSlash(r)
		}
	}
}

func emit(findings []lint.Finding, jsonOut bool) error {
	if jsonOut {
		return lint.EncodeJSON(os.Stdout, findings)
	}
	for _, f := range findings {
		fmt.Println(f.String())
	}
	return nil
}
