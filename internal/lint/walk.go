package lint

import (
	"fmt"
	"strings"
)

// ignoreDirective is the comment prefix that suppresses a finding.
const ignoreDirective = "//lint:ignore"

type ignoreKey struct {
	file string
	line int
}

// directives is one package's parsed suppression table plus the findings for
// malformed directives. A directive must name a registered analyzer AND give
// a reason; a suppression that cannot say why the finding is safe, or that
// names an analyzer which no longer exists, suppresses nothing and is itself
// reported, so neither reasonless nor stale ignores can accumulate.
type directives struct {
	ignored   map[ignoreKey]map[string]bool // file:line -> analyzer set
	malformed []Diagnostic
}

// parseDirectives scans every comment of the package once, for all analyzers.
// A well-formed `//lint:ignore <analyzer> <reason>` covers its own line and
// the line immediately below it, so trailing and preceding placement both
// work.
func parseDirectives(pkg *Package) directives {
	var d directives
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignoreDirective)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue // not a directive (or a longer word sharing the prefix)
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				switch len(fields) {
				case 0:
					d.malformed = append(d.malformed, Diagnostic{Pos: pos, Analyzer: "lint",
						Message: "malformed //lint:ignore: missing analyzer name and reason"})
				case 1:
					d.malformed = append(d.malformed, Diagnostic{Pos: pos, Analyzer: "lint",
						Message: fmt.Sprintf("//lint:ignore %s without a reason suppresses nothing: say why the finding is safe", fields[0])})
				default:
					if ByName(fields[0]) == nil {
						d.malformed = append(d.malformed, Diagnostic{Pos: pos, Analyzer: "lint",
							Message: fmt.Sprintf("//lint:ignore names %q, which is not a registered analyzer (see hierlint -list): it suppresses nothing", fields[0])})
						continue
					}
					if d.ignored == nil {
						d.ignored = map[ignoreKey]map[string]bool{}
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						k := ignoreKey{pos.Filename, line}
						if d.ignored[k] == nil {
							d.ignored[k] = map[string]bool{}
						}
						d.ignored[k][fields[0]] = true
					}
				}
			}
		}
	}
	return d
}

// suppressed reports whether diag is covered by a well-formed directive.
func (d directives) suppressed(diag Diagnostic) bool {
	set := d.ignored[ignoreKey{diag.Pos.Filename, diag.Pos.Line}]
	return set[diag.Analyzer]
}
