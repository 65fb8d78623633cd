// Command snaplint runs the repo's project-specific analyzers:
//
//	lockguard — `// guarded by <mu>` fields accessed under their mutex,
//	            no mixed sync/atomic + plain field access
//	wiretag   — wire structs fully covered by explicit json/wire tags
//	obsname   — metric/event names are internal/obs constants, unique
//	bufown    — //snap:returns-borrowed results are not retained;
//	            consumed buffers are not used after hand-off (via Facts)
//
// It runs only as a go vet tool:
//
//	go vet -vettool=$(go env GOPATH)/bin/snaplint ./...
//
// It speaks cmd/go's unitchecker protocol (-V=full, -flags, one JSON
// .cfg per compilation unit), so results are cached per package like
// any other vet run, _test.go files are covered, and cross-package
// facts ride the protocol's .vetx files. Each finding is printed as
// `file:line:col: message [analyzer]`.
//
// Findings may be waived at a single site with
// `//snaplint:ignore <analyzer>[,<analyzer>] <reason>` on the same or
// the preceding line. The reason is mandatory, and a waiver that names
// an analyzer not listed above (a typo, a retired analyzer) is itself a
// finding: it would otherwise waive nothing without saying so.
//
// Exit codes per unit: 0 no findings, 1 findings reported, 2 the tool
// itself failed (bad arguments, a package failed to typecheck, an
// analyzer crashed); go vet fails on any non-zero code.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/snapml/snap/internal/analysis/bufown"
	"github.com/snapml/snap/internal/analysis/lint"
	"github.com/snapml/snap/internal/analysis/lockguard"
	"github.com/snapml/snap/internal/analysis/obsname"
	"github.com/snapml/snap/internal/analysis/unit"
	"github.com/snapml/snap/internal/analysis/wiretag"
)

func analyzers() []*lint.Analyzer {
	return []*lint.Analyzer{
		lockguard.Analyzer,
		wiretag.Analyzer,
		obsname.Analyzer,
		bufown.Analyzer,
	}
}

func main() {
	as := analyzers()
	if err := lint.Validate(as); err != nil {
		fail(err)
	}

	arg := ""
	if len(os.Args) == 2 {
		arg = os.Args[1]
	}
	switch {
	case arg == "help" || arg == "-help" || arg == "-h":
		Usage(os.Stdout, as)
	case arg == "-V=full":
		if err := unit.PrintVersion(os.Stdout); err != nil {
			fail(err)
		}
	case arg == "-flags":
		if err := unit.PrintFlags(os.Stdout); err != nil {
			fail(err)
		}
	case strings.HasSuffix(arg, ".cfg"):
		diags, err := unit.Run(arg, as)
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		if err != nil {
			fail(err)
		}
		if len(diags) > 0 {
			os.Exit(1)
		}
	default:
		Usage(os.Stderr, as)
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "snaplint:", err)
	os.Exit(2)
}

// Usage prints the help text: the invocation form and one line per
// registered analyzer. A golden test pins this output so the analyzer
// roster cannot drift from the documentation silently.
func Usage(w io.Writer, as []*lint.Analyzer) {
	fmt.Fprintf(w, "usage: go vet -vettool=<path to snaplint> [packages]\n\nAnalyzers:\n")
	for _, a := range as {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(w, "  %-10s %s\n", a.Name, doc)
	}
}
