package lint_test

import (
	"regexp"
	"strings"
	"testing"

	"hierknem/internal/lint"
)

// wantRe extracts the backquoted pattern of a "// want `...`" comment.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// expectation is one `// want` annotation in a fixture file.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// TestAnalyzersGolden runs each analyzer alone against its fixture package
// and requires an exact correspondence between diagnostics and `// want`
// annotations — at least one of each, so an analyzer that silently stops
// firing fails loudly.
func TestAnalyzersGolden(t *testing.T) {
	for _, a := range lint.Analyzers {
		t.Run(a.Name, func(t *testing.T) {
			runGolden(t, []*lint.Analyzer{a}, "./testdata/"+a.Name, true)
		})
	}
}

// TestCleanFixture runs every analyzer over the clean package: zero
// diagnostics expected, including the suppressed violation inside (which
// exercises the //lint:ignore path).
func TestCleanFixture(t *testing.T) {
	runGolden(t, lint.Analyzers, "./testdata/clean", false)
}

// TestByName covers registry lookup.
func TestByName(t *testing.T) {
	for _, name := range []string{"errcheck", "runisolation"} {
		if lint.ByName(name) == nil {
			t.Errorf("ByName(%q) = nil, want analyzer", name)
		}
	}
	for _, name := range []string{"nope", "all", "determinism"} {
		if lint.ByName(name) != nil {
			t.Errorf("ByName(%q) should be nil", name)
		}
	}
}

func runGolden(t *testing.T, analyzers []*lint.Analyzer, pattern string, wantFindings bool) {
	t.Helper()
	pkgs, err := lint.Load(".", pattern)
	if err != nil {
		t.Fatalf("Load(%q): %v", pattern, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load(%q) = %d packages, want 1", pattern, len(pkgs))
	}
	pkg := pkgs[0]

	wants := collectWants(t, pkg)
	diags := lint.Run(pkg, analyzers)

	if wantFindings && (len(wants) == 0 || len(diags) == 0) {
		t.Fatalf("fixture %s: %d expectations, %d diagnostics — golden fixtures must fire", pattern, len(wants), len(diags))
	}

	var unexpected []string
	for _, d := range diags {
		ok := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			unexpected = append(unexpected, d.String())
		}
	}
	for _, d := range unexpected {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// collectWants parses `// want` annotations out of a loaded package.
func collectWants(t *testing.T, pkg *lint.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.HasPrefix(c.Text, "// want ") {
						t.Fatalf("malformed want comment: %s", c.Text)
					}
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
			}
		}
	}
	return wants
}

// TestSuppressionReasonRequired pins the directive contract: a reasonless,
// bare or unregistered-analyzer //lint:ignore suppresses nothing (the
// underlying finding survives) and is itself reported as a malformed
// directive, while a well-formed one still silences its line.
func TestSuppressionReasonRequired(t *testing.T) {
	pkgs, err := lint.Load(".", "./testdata/ignorereason")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run(pkgs[0], []*lint.Analyzer{lint.ByName("errcheck")})

	var malformed, errcheck []lint.Diagnostic
	for _, d := range diags {
		switch d.Analyzer {
		case "lint":
			malformed = append(malformed, d)
		case "errcheck":
			errcheck = append(errcheck, d)
		default:
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
	}
	// Three malformed directives, in line order: reasonless, bare, retired.
	want := []string{
		"without a reason suppresses nothing",
		"missing analyzer name and reason",
		`names "vtmono", which is not a registered analyzer`,
	}
	if len(malformed) != len(want) {
		t.Fatalf("got %d malformed-directive findings, want %d: %v", len(malformed), len(want), diags)
	}
	for i, w := range want {
		if !strings.Contains(malformed[i].Message, w) {
			t.Errorf("malformed finding %d = %q, want it to say %q", i, malformed[i].Message, w)
		}
	}
	// Three errcheck findings survive (reasonless, bare, retired); the
	// well-formed suppression in excused() removes the fourth.
	if len(errcheck) != 3 {
		t.Fatalf("got %d errcheck findings, want 3 (malformed directives must not suppress): %v", len(errcheck), diags)
	}
}

// TestSortDiagnostics pins the report ordering: (file, line, analyzer,
// column, message), so hierlint output is byte-stable across runs.
func TestSortDiagnostics(t *testing.T) {
	mk := func(file string, line, col int, an, msg string) lint.Diagnostic {
		d := lint.Diagnostic{Analyzer: an, Message: msg}
		d.Pos.Filename, d.Pos.Line, d.Pos.Column = file, line, col
		return d
	}
	in := []lint.Diagnostic{
		mk("b.go", 1, 1, "errcheck", "z"),
		mk("a.go", 9, 2, "runisolation", "m"),
		mk("a.go", 9, 1, "errcheck", "m"),
		mk("a.go", 9, 2, "errcheck", "b"),
		mk("a.go", 9, 2, "errcheck", "a"),
		mk("a.go", 3, 7, "errcheck", "x"),
	}
	lint.SortDiagnostics(in)
	want := []string{
		"a.go:3:7: [errcheck] x",
		"a.go:9:1: [errcheck] m",
		"a.go:9:2: [errcheck] a",
		"a.go:9:2: [errcheck] b",
		"a.go:9:2: [runisolation] m",
		"b.go:1:1: [errcheck] z",
	}
	for i, d := range in {
		if d.String() != want[i] {
			t.Errorf("position %d: got %s, want %s", i, d.String(), want[i])
		}
	}
}

// TestDiagnosticString pins the CLI output format
// (file:line:col: [analyzer] message) so scripts can rely on it.
func TestDiagnosticString(t *testing.T) {
	pkgs, err := lint.Load(".", "./testdata/errcheck")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run(pkgs[0], []*lint.Analyzer{lint.ByName("errcheck")})
	if len(diags) == 0 {
		t.Fatal("errcheck fixture produced no diagnostics")
	}
	got := diags[0].String()
	re := regexp.MustCompile(`^.+\.go:\d+:\d+: \[errcheck\] .+$`)
	if !re.MatchString(got) {
		t.Errorf("Diagnostic.String() = %q, want file:line:col: [analyzer] message", got)
	}
}
