// Package directive parses the `//snap:<name> [args...]` source
// annotations the snaplint analyzers act on:
//
//	//snap:returns-borrowed    result is callee-owned scratch (bufown)
//	//snap:consumes <param>    the argument passed for <param> must not
//	                           be used after the call (bufown)
//	//snap:borrows <param>     the slice param must not be retained
//	                           past the call (bufown)
//	//snap:wire                struct is wire-encoded (wiretag)
//
// The grammar is deliberately rigid — `//snap:` with no space before
// the name, space-separated arguments — so a typo'd annotation parses
// as nothing rather than as a slightly different contract. Parsing
// never panics on arbitrary comment text (fuzzed).
package directive

import (
	"go/ast"
	"go/token"
	"strings"
)

// A Directive is one parsed //snap: annotation.
type Directive struct {
	Name string   // "returns-borrowed", "consumes", ...
	Args []string // whitespace-separated arguments after the name
	Pos  token.Pos
}

// Parse extracts the directive from a single comment's text, or returns
// false. The comment must be a line comment starting exactly with
// "//snap:" (no space, matching the Go convention for machine-readable
// directives).
func Parse(text string, pos token.Pos) (Directive, bool) {
	rest, ok := strings.CutPrefix(text, "//snap:")
	if !ok {
		return Directive{}, false
	}
	// The directive name runs to the first whitespace; an empty name
	// ("//snap: x") is not a directive.
	if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
		return Directive{}, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return Directive{}, false
	}
	name := fields[0]
	if strings.ContainsAny(name, "\t ") || name == "" {
		return Directive{}, false
	}
	// Reject names with characters outside [a-z0-9-]: they are typos or
	// other tools' namespaces, not contracts.
	for _, r := range name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return Directive{}, false
		}
	}
	return Directive{Name: name, Args: fields[1:], Pos: pos}, true
}

// ForDoc returns every directive in a declaration's doc comment group
// (nil-safe).
func ForDoc(doc *ast.CommentGroup) []Directive {
	if doc == nil {
		return nil
	}
	var out []Directive
	for _, c := range doc.List {
		if d, ok := Parse(c.Text, c.Pos()); ok {
			out = append(out, d)
		}
	}
	return out
}

// Has reports whether the doc group carries the named directive.
func Has(doc *ast.CommentGroup, name string) bool {
	for _, d := range ForDoc(doc) {
		if d.Name == name {
			return true
		}
	}
	return false
}

// Arg returns the first argument of the named directive in doc, if the
// directive is present with at least one argument.
func Arg(doc *ast.CommentGroup, name string) (string, bool) {
	for _, d := range ForDoc(doc) {
		if d.Name == name && len(d.Args) > 0 {
			return d.Args[0], true
		}
	}
	return "", false
}
