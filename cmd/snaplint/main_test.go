package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestUsageGolden pins the help text byte-for-byte. Adding, renaming,
// or reordering an analyzer must show up here — the roster in the help
// output is documentation, and this keeps it from drifting silently.
func TestUsageGolden(t *testing.T) {
	const want = `usage: go vet -vettool=<path to snaplint> [packages]

Analyzers:
  lockguard  check that fields annotated ` + "`// guarded by <mu>`" + ` are accessed under that mutex, and that no field mixes sync/atomic and plain access
  wiretag    check that every exported field of a wire struct (snap:wire marker, tagged sibling, or json-encoded) has an explicit json/wire tag
  obsname    check that metric/event names passed to internal/obs are named constants, and that declared names are unique
  bufown     borrowed results are not retained, consumed buffers are not reused, borrowed params do not escape
`
	var buf bytes.Buffer
	Usage(&buf, analyzers())
	if buf.String() != want {
		t.Errorf("usage output drifted:\n got:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// writeModule lays out a throwaway module exercising the go vet driver
// end to end: `dep` exports a borrowed-result contract, an owned-result
// function, and a deliberate violation; `c` imports it; `clean` has no
// findings at all; `waiver` holds a malformed //snaplint:ignore and
// `typo` a well-formed one naming no registered analyzer.
func writeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/tmp\n\ngo 1.22\n",
		"clean/clean.go": `package clean

// Add is trivially finding-free.
func Add(a, b int) int { return a + b }
`,
		"dep/dep.go": `package dep

// Pool hands out one scratch buffer.
type Pool struct{ buf []byte }

// Get lends the pool's buffer and exports that contract as a fact.
//
//snap:returns-borrowed
func (p *Pool) Get() []byte { return p.buf }

// Fresh returns a buffer the caller owns; no contract, no fact.
func Fresh() []byte { return make([]byte, 4) }

// Leak returns the pool's buffer without declaring the contract. When
// dep is vetted VetxOnly as a dependency, this violation must be
// discarded.
func (p *Pool) Leak() []byte { return p.buf }
`,
		"c/c.go": `package c

import "example.com/tmp/dep"

type holder struct{ kept, owned []byte }

// Fine keeps only the buffer it owns and merely reads the borrowed one:
// no finding.
func (h *holder) Fine(p *dep.Pool) int {
	h.owned = dep.Fresh()
	return len(p.Get())
}

// Bad retains the borrowed buffer, whose contract arrived over dep's
// .vetx file: one finding here.
func (h *holder) Bad(p *dep.Pool) { h.kept = p.Get() }
`,
		"waiver/waiver.go": `package waiver

//snaplint:ignore bufown
func Waived() {}
`,
		"typo/typo.go": `package typo

//snaplint:ignore lockgaurd the analyzer name is misspelled
func Waived() {}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// buildSnaplint builds this command into a temporary directory.
func buildSnaplint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "snaplint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// vet runs the real `go vet -vettool=<bin> <pkg>` in dir and returns
// its output lines, minus go vet's "# pkg" headers, and its exit error.
func vet(t *testing.T, bin, dir, pkg string) (findings []string, err error) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+bin, pkg)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line != "" && !strings.HasPrefix(line, "# ") {
			findings = append(findings, line)
		}
	}
	return findings, err
}

// TestStandaloneExitCodes drives the built snaplint binary through
// `go vet -vettool`, the only way it runs (the name predates the
// deletion of the in-process driver): a clean package exits 0 with no
// output, findings and malformed waivers make go vet fail, and the vet
// protocol's -V=full and -flags queries answer as go vet expects. A
// waiver naming an analyzer outside the roster is a finding too: it
// would otherwise waive nothing, silently.
func TestStandaloneExitCodes(t *testing.T) {
	bin := buildSnaplint(t)
	dir := writeModule(t)

	if findings, err := vet(t, bin, dir, "./clean"); err != nil || len(findings) > 0 {
		t.Errorf("vet ./clean: err %v, output %q; want success and no output", err, findings)
	}
	if _, err := vet(t, bin, dir, "./c"); err == nil {
		t.Error("vet ./c succeeded; want a non-zero exit on the finding")
	}
	findings, err := vet(t, bin, dir, "./waiver")
	if err == nil || len(findings) != 1 || !strings.Contains(findings[0], "missing reason [snaplint]") {
		t.Errorf("vet ./waiver: err %v, output %q; want one malformed-waiver finding tagged [snaplint]", err, findings)
	}
	findings, err = vet(t, bin, dir, "./typo")
	if err == nil || len(findings) != 1 || !strings.Contains(findings[0], `unknown analyzer "lockgaurd" [snaplint]`) {
		t.Errorf("vet ./typo: err %v, output %q; want one unknown-analyzer finding tagged [snaplint]", err, findings)
	}

	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil || !regexp.MustCompile(`buildID=[0-9a-f]+\n$`).Match(out) {
		t.Errorf("-V=full: err %v, output %q; want a buildID=<hex> line", err, out)
	}
	if out, err := exec.Command(bin, "-flags").Output(); err != nil || string(out) != "[]\n" {
		t.Errorf("-flags: err %v, output %q; want []", err, out)
	}
}

// TestStandaloneDepFactsAndJSON drives the cross-package story through
// the real `go vet -vettool` (the -json half of the name went with the
// deleted flag): vetting ./c must pull dep's //snap:returns-borrowed
// fact over its .vetx file (so Bad is flagged, tagged [bufown], while
// retaining the owned dep.Fresh result is not) and VetxOnly must discard
// dep's own diagnostics (Leak stays silent).
func TestStandaloneDepFactsAndJSON(t *testing.T) {
	bin := buildSnaplint(t)
	findings, err := vet(t, bin, writeModule(t), "./c")
	if err == nil {
		t.Error("vet ./c succeeded; want a non-zero exit on the finding")
	}
	if len(findings) != 1 {
		t.Fatalf("vet ./c: %d lines, want exactly 1 (Bad retains dep.Get):\n%s", len(findings), strings.Join(findings, "\n"))
	}
	if f := findings[0]; !regexp.MustCompile(`c\.go:\d+:\d+: .*\bGet\b.* \[bufown\]$`).MatchString(f) {
		t.Errorf("finding %q: want a c.go position, a message about dep.Get, and the [bufown] tag", f)
	}
	for _, f := range findings {
		if strings.Contains(f, "Fresh") {
			t.Errorf("owned dep.Fresh result flagged: %s", f)
		}
		if strings.Contains(f, "dep.go") {
			t.Errorf("VetxOnly dependency leaked a diagnostic: %s", f)
		}
	}
}

// TestHelpAndBadArgs: help prints the usage and succeeds (go vet itself
// points users at `snaplint help`); anything outside the vet protocol
// prints it and fails.
func TestHelpAndBadArgs(t *testing.T) {
	bin := buildSnaplint(t)
	var want bytes.Buffer
	Usage(&want, analyzers())
	for _, arg := range []string{"help", "-help", "-h"} {
		out, err := exec.Command(bin, arg).Output()
		if err != nil || string(out) != want.String() {
			t.Errorf("snaplint %s: err %v, output %q; want the usage and exit 0", arg, err, out)
		}
	}
	for _, args := range [][]string{{}, {"./..."}, {"-json", "./..."}, {"a.cfg", "b.cfg"}} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || string(out) != want.String() {
			t.Errorf("snaplint %q: err %v, output %q; want the usage and exit 2", args, err, out)
		}
	}
}
