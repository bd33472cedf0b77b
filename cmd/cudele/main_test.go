package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"cudele"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	fn()
	w.Close()
	out := <-done
	os.Stdout = old
	return out
}

// TestGoldenSession replays testdata/session.txt against a fresh cluster
// and compares the full transcript byte-for-byte with the committed
// golden file. The simulation is deterministic, so any drift in inode
// numbering, policy compilation, merge counts, or virtual time shows up
// here first.
func TestGoldenSession(t *testing.T) {
	script, err := os.Open("testdata/session.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer script.Close()
	lines, err := readLines(script)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/session.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() {
		cl := cudele.NewCluster()
		c := cl.NewClient("client.0")
		cl.Run(func(p cudele.Proc) {
			for _, line := range lines {
				if err := execute(cl, c, p, line); err != nil {
					t.Errorf("execute %q: %v", line, err)
				}
			}
		})
	})
	if got != string(want) {
		t.Errorf("session transcript drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestParseFlags smoke-tests the command line surface.
func TestParseFlags(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil || o.seed != 1 || o.ranks != 1 || o.backend != cudele.BackendSim || o.script != "" {
		t.Fatalf("defaults = %+v, %v", o, err)
	}
	o, err = parseFlags([]string{"-seed", "7", "-ranks", "2", "-trace", "t.json", "-metrics", "m.prom", "script.txt"})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if o.seed != 7 || o.ranks != 2 || o.tracePath != "t.json" ||
		o.metricsPath != "m.prom" || o.script != "script.txt" {
		t.Fatalf("parsed = %+v", o)
	}
	o, err = parseFlags([]string{"-backend", "real", "-datadir", "/tmp/objs"})
	if err != nil || o.backend != cudele.BackendReal || o.dataDir != "/tmp/objs" {
		t.Fatalf("real backend parse = %+v, %v", o, err)
	}
	for _, bad := range [][]string{
		{"-seed", "many"},         // non-integer seed
		{"-ranks", "0"},           // no ranks at all
		{"-bogus"},                // unknown flag
		{"-backend", "warp"},      // unknown backend
		{"-datadir", "/tmp/objs"}, // datadir without -backend=real
		{"a.txt", "b.txt"},        // a second script would go unread
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%v) accepted", bad)
		}
	}
}

func TestPoliciesText(t *testing.T) {
	text, err := policiesText([]string{"consistency=weak", "durability=local", "inodes=500", "interfere=block"})
	if err != nil {
		t.Fatalf("policiesText: %v", err)
	}
	for _, want := range []string{"consistency: weak", "durability: local", "allocated_inodes: 500", "interfere: block"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in %q", want, text)
		}
	}
	for _, bad := range [][]string{
		{"consistency"}, // no '='
		{"inodes=lots"}, // non-integer
		{"colour=blue"}, // unknown key
		{"rank=1"},      // placement is the pin command, not a policy
	} {
		if _, err := policiesText(bad); err == nil {
			t.Errorf("policiesText(%v) accepted", bad)
		}
	}
}

func TestReadLines(t *testing.T) {
	in := strings.NewReader("# comment\n\nmkdir /a\n  ls /a  \n")
	lines, err := readLines(in)
	if err != nil {
		t.Fatalf("readLines: %v", err)
	}
	if len(lines) != 2 || lines[0] != "mkdir /a" || lines[1] != "ls /a" {
		t.Fatalf("lines = %v", lines)
	}
}

func TestExecuteScript(t *testing.T) {
	cl := cudele.NewCluster()
	c := cl.NewClient("client.0")
	script := []string{
		"mkdir /home/a",
		"create /home/a/f",
		"stat /home/a/f",
		"ls /home/a",
		"decouple /home/a consistency=weak durability=local inodes=50",
		"lmkdir sub",
		"lcreate x",
		"persist local",
		"merge",
		"ls /home/a",
		"recouple /home/a",
		"rm /home/a/f",
		"scrub",
		"repair",
		"status",
		"time",
	}
	cl.Run(func(p cudele.Proc) {
		for _, line := range script {
			if err := execute(cl, c, p, line); err != nil {
				t.Errorf("execute %q: %v", line, err)
				return
			}
		}
	})
	if _, err := cl.MDS().Store().Resolve("/home/a/x"); err != nil {
		t.Fatalf("merged file missing: %v", err)
	}
}

func TestExecuteErrors(t *testing.T) {
	cl := cudele.NewCluster()
	c := cl.NewClient("client.0")
	cl.Run(func(p cudele.Proc) {
		bad := []string{
			"frobnicate /x",     // unknown command
			"mkdir",             // missing arg
			"create /missing/f", // bad path
			"ls /missing",       // bad path
			"merge",             // not decoupled
			"persist sideways",  // bad mode
			"recouple /never",   // unknown subtree
			"decouple /missing", // bad path
			"lcreate x",         // not decoupled
			"stat /missing",     // bad path
		}
		for _, line := range bad {
			if err := execute(cl, c, p, line); err == nil {
				t.Errorf("execute %q succeeded", line)
			}
		}
	})
}
