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
// The checks enforce the conventions the checker and simulator
// correctness hangs on, over the loaded program and its call graph:
// determinism (nothing outside a //lint:allow determinism doc-comment
// boundary reaches the wall clock or global math/rand, directly or
// through any chain of calls, reported with the laundering chain),
// map-iteration-order hygiene, the ta.Successors/AppendKey buffer-reuse
// contract, atomic-vs-plain access discipline, noalloc-closure (every
// //hbvet:noalloc root and every function reachable from one must be
// free of likely allocation sites, with full call chains in findings),
// unused-export (exported functions and *Config/*Options fields that no
// cmd/ or examples/ main reaches or sets; a load without such a main
// reports nothing), and unused-suppression (//lint:allow directives that
// suppress nothing are findings). -escape bypasses the AST layer
// entirely: it diffs the compiler's own heap diagnostics for the hot-path
// packages against the checked-in escape_budget.txt.
//
// Findings print as file:line:col: message [check]; exit status is 1
// when any finding survives //lint:allow suppression, 2 on usage or
// load errors — an unknown -check name, -update without -escape.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		checks  = fs.String("check", "", "comma-separated subset of checks to run (default: all)")
		list    = fs.Bool("list", false, "list the available checks and exit")
		root    = fs.String("root", "", "module root (default: nearest go.mod above the working directory)")
		jsonOut = fs.Bool("json", false, "emit findings as schema-versioned JSON on stdout")
		escape  = fs.Bool("escape", false, "run the compiler escape-budget gate instead of the AST checks")
		update  = fs.Bool("update", false, "with -escape: regenerate the budget file instead of diffing")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-20s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%-20s %s\n", "escape-budget", "compiler heap diagnostics for hot-path packages must match escape_budget.txt (-escape)")
		return 0
	}

	names := splitChecks(*checks)
	for _, c := range names {
		if !slices.ContainsFunc(lint.Analyzers(), func(a *lint.Analyzer) bool { return a.Name == c }) {
			fmt.Fprintf(stderr, "hbvet: unknown check %q (hbvet -list names them; escape-budget runs under -escape)\n", c)
			return 2
		}
	}
	if *update && !*escape {
		fmt.Fprintln(stderr, "hbvet: -update regenerates the escape budget and needs -escape")
		return 2
	}

	moduleRoot := *root
	if moduleRoot == "" {
		var err error
		moduleRoot, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(stderr, "hbvet:", err)
			return 2
		}
	}

	var (
		n   int
		err error
	)
	if *escape {
		n, err = runEscape(stdout, moduleRoot, *update, *jsonOut)
	} else {
		patterns := fs.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		n, err = vet(stdout, moduleRoot, patterns, names, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(stderr, "hbvet:", err)
		return 2
	}
	if n > 0 {
		fmt.Fprintf(stderr, "hbvet: %d finding(s)\n", n)
		return 1
	}
	return 0
}

func splitChecks(s string) []string {
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

// vet loads the packages as one program, runs the analyzers, and prints
// the findings, returning how many there were.
func vet(w io.Writer, root string, patterns, checks []string, jsonOut bool) (int, error) {
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
	return len(findings), emit(w, findings, jsonOut)
}

// runEscape diffs (or regenerates, with update) the compiler escape
// budget for the hot-path packages.
func runEscape(w io.Writer, root string, update, jsonOut bool) (int, error) {
	sites, err := lint.EscapeSites(root, lint.HotPathPackages)
	if err != nil {
		return 0, err
	}
	budgetPath := filepath.Join(root, lint.EscapeBudgetFile)
	if update {
		if err := lint.WriteEscapeBudget(budgetPath, sites); err != nil {
			return 0, err
		}
		fmt.Fprintf(w, "hbvet: wrote %s: %d heap-allocation site classes across %d packages\n",
			lint.EscapeBudgetFile, len(sites), len(lint.HotPathPackages))
		return 0, nil
	}
	budget, err := lint.LoadEscapeBudget(budgetPath)
	if err != nil {
		return 0, fmt.Errorf("loading escape budget (run `hbvet -escape -update` to create it): %w", err)
	}
	findings := lint.DiffEscapeBudget(budget, sites)
	return len(findings), emit(w, findings, jsonOut)
}

// relativize rewrites absolute finding paths to module-relative ones.
func relativize(root string, findings []lint.Finding) {
	for i := range findings {
		if r, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			findings[i].Pos.Filename = filepath.ToSlash(r)
		}
	}
}

func emit(w io.Writer, findings []lint.Finding, jsonOut bool) error {
	if jsonOut {
		return lint.EncodeJSON(w, findings)
	}
	for _, f := range findings {
		fmt.Fprintln(w, f.String())
	}
	return nil
}
