package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitCodes pins the exit-code contract: input the command cannot
// use is one stderr line and exit 2 with nothing on stdout; a good
// invocation prints the report and exits 0.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string // fragment the single stderr line must carry
	}{
		{"unknown cluster", []string{"-cluster", "grid5000"}, 2, `unknown cluster "grid5000"`},
		{"unknown binding", []string{"-binding", "scatter"}, 2, `unknown binding "scatter"`},
		{"np above cores", []string{"-nodes", "2", "-np", "49"}, 2, "49"},
		{"negative np", []string{"-np", "-3"}, 2, "-np -3"},
		{"good", []string{"-cluster", "stremi", "-nodes", "2", "-np", "6", "-binding", "bynode"}, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if tc.code == 0 {
				if stderr.Len() != 0 {
					t.Errorf("stderr %q on a good run", stderr.String())
				}
				for _, frag := range []string{"cluster stremi: 2 nodes", "binding bynode: 6 processes", "physical-order ring:"} {
					if !strings.Contains(stdout.String(), frag) {
						t.Errorf("report missing %q:\n%s", frag, stdout.String())
					}
				}
				return
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout %q on a rejected run", stdout.String())
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "topoview: ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.stderr) {
				t.Errorf("stderr %q, want one topoview: line mentioning %q", msg, tc.stderr)
			}
		})
	}
}
