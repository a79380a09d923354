package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// The simulator promises bit-for-bit determinism: the same experiment on
// the same configuration must print the same bytes, every time, in the same
// process. This golden test runs every -exp experiment twice on a tiny
// cluster and diffs the outputs — any nondeterminism smuggled into the
// stack (map iteration, real time, uninitialized state shared between
// worlds) shows up as a diff here.

// tinyCfg shrinks every experiment to a 2-node cluster with one timed
// iteration so the whole table runs in seconds.
var tinyCfg = config{nodes: 2, iters: 1, aspN: 128, aspDim: 2}

// captureStdout runs fn with os.Stdout redirected into a buffer.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	type res struct {
		s   string
		err error
	}
	done := make(chan res)
	go func() {
		var b bytes.Buffer
		_, cerr := io.Copy(&b, r)
		done <- res{b.String(), cerr}
	}()
	fn()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	os.Stdout = old
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	return out.s
}

// shortSubset keeps -short runs quick while still crossing every layer:
// a module-matrix figure, an allgather figure and the ASP application.
var shortSubset = map[string]bool{"fig3a": true, "fig5b": true, "table2": true}

func TestExperimentsDeterministic(t *testing.T) {
	for _, id := range experimentIDs() {
		id := id
		if testing.Short() && !shortSubset[id] {
			continue
		}
		t.Run(id, func(t *testing.T) {
			run := func() string {
				return captureStdout(t, func() {
					if err := runExperiments([]string{id}, tinyCfg, 1, nil); err != nil {
						t.Fatal(err)
					}
				})
			}
			first := run()
			if first == "" {
				t.Fatal("experiment printed nothing")
			}
			second := run()
			if first != second {
				t.Fatalf("experiment %q is nondeterministic:\n--- first run ---\n%s\n--- second run ---\n%s",
					id, first, second)
			}
		})
	}
}

// TestExperimentIDsStable pins the experiment catalog: renaming or dropping
// an -exp id silently breaks published reproduction instructions.
func TestExperimentIDsStable(t *testing.T) {
	want := []string{
		"ablation", "extensions",
		"fig1", "fig2", "fig3a", "fig3b", "fig4a", "fig4b",
		"fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b",
		"table1", "table2",
	}
	got := experimentIDs()
	if len(got) != len(want) {
		t.Fatalf("experiment ids = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("experiment ids = %v, want %v", got, want)
		}
	}
}

// TestConfigValidate pins the up-front rejection of counts that used to
// reach the jobs and panic once per job.
func TestConfigValidate(t *testing.T) {
	if err := tinyCfg.validate(); err != nil {
		t.Fatalf("tinyCfg rejected: %v", err)
	}
	for _, bad := range []config{
		{nodes: 0, iters: 1, aspN: 128, aspDim: 2},
		{nodes: -1, iters: 1, aspN: 128, aspDim: 2},
		{nodes: 2, iters: 1, aspN: 128, aspDim: 0},
		{nodes: 2, iters: 1, aspN: 0, aspDim: 2},
	} {
		if err := bad.validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}
