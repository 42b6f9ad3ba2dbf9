// Command linkaudit lists the functions declared under internal/ that no
// binary links, and fails when one of them is missing from the checked-in
// allowlist (or when an allowlist entry is no longer unlinked).
//
// It builds every main package of the module plus perfbench with inlining
// off, so each call survives as a symbol, reads the text symbols with
// go tool nm, and diffs them against the non-test function declarations
// of the internal packages. Generic instantiations match by base name.
//
// Run it from the repository root:
//
//	go run .github/linkaudit.go
//
// Each allowlist line (.github/linkaudit_allow.txt) is a function, written
// as the symbol without the "repro/internal/" prefix, and a one-word
// reason: oracle, fuzzed, fixture or paper.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const (
	prefix    = "repro/internal/"
	allowFile = ".github/linkaudit_allow.txt"
)

var reasons = map[string]bool{"oracle": true, "fuzzed": true, "fixture": true, "paper": true}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "linkaudit:", err)
		os.Exit(1)
	}
}

func run() error {
	tmp, err := os.MkdirTemp("", "linkaudit")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bin := tmp + string(filepath.Separator)
	if err := command("", "go", "build", "-gcflags=all=-l", "-o", bin, "./...").Run(); err != nil {
		return fmt.Errorf("build: %w", err)
	}
	if err := command("perfbench", "go", "build", "-gcflags=all=-l", "-o", bin, ".").Run(); err != nil {
		return fmt.Errorf("build perfbench: %w", err)
	}
	linked, err := linkedSymbols(tmp)
	if err != nil {
		return err
	}
	declared, err := declaredFuncs()
	if err != nil {
		return err
	}
	allow, err := readAllowlist()
	if err != nil {
		return err
	}

	var missing, stale []string
	for name, pos := range declared {
		if !linked[prefix+name] && allow[name] == "" {
			missing = append(missing, pos+": "+name)
		}
	}
	for name := range allow {
		if _, ok := declared[name]; !ok || linked[prefix+name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, m := range missing {
		fmt.Println("unlinked, not allowlisted:", m)
	}
	for _, s := range stale {
		fmt.Println("allowlisted, but linked or gone:", s)
	}
	if len(missing)+len(stale) > 0 {
		return fmt.Errorf("%d unlinked functions missing from %s, %d stale entries", len(missing), allowFile, len(stale))
	}
	fmt.Printf("linkaudit: %d declared functions, %d allowlisted as unlinked\n", len(declared), len(allow))
	return nil
}

func command(dir, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	return cmd
}

// linkedSymbols returns the text symbols of every binary in dir, with
// type arguments stripped.
func linkedSymbols(dir string) (map[string]bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, e := range entries {
		out, err := command("", "go", "tool", "nm", filepath.Join(dir, e.Name())).Output()
		if err != nil {
			return nil, fmt.Errorf("nm %s: %w", e.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				linked[stripTypeArgs(strings.Join(f[2:], " "))] = true
			}
		}
	}
	return linked, nil
}

// stripTypeArgs removes every bracketed group, so Foo[go.shape.int] and
// (*LRU[K,V]).Get read as Foo and (*LRU).Get.
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declaredFuncs maps each non-test function and method declared under
// internal/ (as pkg.Func, pkg.T.M or pkg.(*T).M) to its position.
func declaredFuncs() (map[string]string, error) {
	out, err := command("", "go", "list", "-f", "{{.ImportPath}}|{{.Dir}}|{{join .GoFiles \",\"}}", "./internal/...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	declared := map[string]string{}
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		parts := strings.SplitN(line, "|", 3)
		if len(parts) != 3 || parts[2] == "" {
			continue
		}
		pkg := strings.TrimPrefix(parts[0], prefix)
		for _, file := range strings.Split(parts[2], ",") {
			path := filepath.Join(parts[1], file)
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				name := pkg + "." + fn.Name.Name
				if fn.Recv != nil {
					name = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				pos := fset.Position(fn.Pos())
				where := pos.Filename
				if rel, err := filepath.Rel(wd, where); err == nil {
					where = rel
				}
				declared[name] = fmt.Sprintf("%s:%d", where, pos.Line)
			}
		}
	}
	return declared, nil
}

func recvName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return "(*" + recvName(t.X) + ")"
	case *ast.IndexExpr:
		return recvName(t.X)
	case *ast.IndexListExpr:
		return recvName(t.X)
	case *ast.ParenExpr:
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return fmt.Sprintf("%T", t)
}

// readAllowlist maps each allowlisted function to its reason.
func readAllowlist() (map[string]string, error) {
	f, err := os.Open(allowFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || !reasons[fields[1]] {
			return nil, fmt.Errorf("%s:%d: want \"<function> <oracle|fuzzed|fixture|paper>\", got %q", allowFile, n, line)
		}
		allow[fields[0]] = fields[1]
	}
	return allow, sc.Err()
}
