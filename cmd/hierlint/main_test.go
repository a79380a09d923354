package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

const fixtures = "./internal/lint/testdata/"

// hierlint runs the command from the module root, as CI does, and returns
// its exit status and output streams.
func hierlint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(cwd); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFindingsExitOne pins the failing half of the exit-code contract and
// the report format: one cwd-relative file:line:col line per finding, sorted
// across packages whatever order they were named in.
func TestFindingsExitOne(t *testing.T) {
	code, stdout, _ := hierlint(t, fixtures+"runisolation", fixtures+"errcheck")
	if code != 1 {
		t.Fatalf("exit %d on violating fixtures, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) < 2 {
		t.Fatalf("want findings from both fixtures, got %q", stdout)
	}
	var files []string
	for _, l := range lines {
		if !strings.HasPrefix(l, "internal/lint/testdata/") {
			t.Errorf("line is not cwd-relative: %s", l)
		}
		file, _, _ := strings.Cut(l, ":")
		if len(files) == 0 || files[len(files)-1] != file {
			files = append(files, file)
		}
	}
	want := []string{"internal/lint/testdata/errcheck/errcheck.go", "internal/lint/testdata/runisolation/runisolation.go"}
	if fmt.Sprint(files) != fmt.Sprint(want) {
		t.Errorf("files in report order = %v, want %v", files, want)
	}
}

func TestCleanExitZero(t *testing.T) {
	code, stdout, stderr := hierlint(t, fixtures+"clean")
	if code != 0 || stdout != "" {
		t.Fatalf("clean fixture: exit %d, stdout %q, stderr %q; want 0 and no findings", code, stdout, stderr)
	}
}

// TestTestOnlyDependencyLoads lints a package whose tests import a package
// that in turn imports it (internal/core's tests use internal/clusters):
// go list names that dependency only as `path [pkg.test]`, and the loader
// must still find its export data.
func TestTestOnlyDependencyLoads(t *testing.T) {
	code, stdout, stderr := hierlint(t, "./internal/core")
	if code != 0 || stdout != "" {
		t.Fatalf("hierlint ./internal/core: exit %d, stdout %q, stderr %q; want 0 and no findings", code, stdout, stderr)
	}
}

// TestExternalTestSeesOneTestVariant lints a package whose external test
// calls an export_test.go helper and also imports, through the facade, a
// package built on the package under test (internal/fabric's traffic test):
// both must resolve to the one test-binary build of internal/fabric, or the
// helper's *fabric.Net and the facade's are different types.
func TestExternalTestSeesOneTestVariant(t *testing.T) {
	code, stdout, stderr := hierlint(t, "./internal/fabric")
	if code != 0 || stdout != "" {
		t.Fatalf("hierlint ./internal/fabric: exit %d, stdout %q, stderr %q; want 0 and no findings", code, stdout, stderr)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "nope", fixtures + "clean"},
		{"-parallel", "1", fixtures + "clean"}, // a retired flag is an unknown flag
		{fixtures + "no-such-fixture"},
	} {
		code, stdout, stderr := hierlint(t, args...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("hierlint %v: exit %d, stdout %q, stderr %q; want 2 with the reason on stderr only", args, code, stdout, stderr)
		}
	}
}

// TestJSONMatchesText pins -json as the same findings in another format,
// which is what CI's ::error annotations rely on.
func TestJSONMatchesText(t *testing.T) {
	_, text, _ := hierlint(t, fixtures+"errcheck")
	code, stdout, _ := hierlint(t, "-json", fixtures+"errcheck")
	if code != 1 {
		t.Fatalf("exit %d with -json on a violating fixture, want 1", code)
	}
	var report jsonReport
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout)
	}
	var fromJSON strings.Builder
	for _, d := range report.Diagnostics {
		fmt.Fprintf(&fromJSON, "%s:%d:%d: [%s] %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	}
	if fromJSON.String() != text || text == "" {
		t.Errorf("-json diagnostics differ from the text report:\njson:\n%stext:\n%s", fromJSON.String(), text)
	}
}

func TestListPrintsTheCatalogue(t *testing.T) {
	code, stdout, _ := hierlint(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit %d, want 0", code)
	}
	var names []string
	for _, l := range strings.Split(strings.TrimSpace(stdout), "\n") {
		names = append(names, strings.Fields(l)[0])
	}
	want := []string{"errcheck", "runisolation"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("-list names = %v, want %v", names, want)
	}
}
