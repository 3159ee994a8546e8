// Package analysis is the static-analysis suite behind chameleon-sites:
// it discovers every chameleon collection allocation site in a Go
// program, recovers the site's allocation-context label the same way the
// runtime does (internal/alloctx), classifies each site as safe or
// unsafe for ahead-of-time specialization, and cross-checks the
// resulting site manifest against rule sets and profile snapshots.
//
// The paper's endgame is applying suggestions to the program; rewriting
// an allocation site to a concrete backing (the planned chameleon-apply)
// is only sound at sites where the representation provably never escapes
// the abstraction boundary — "Repr Types" makes the same observation for
// compiled representations, and Makor et al. gate profile-guided
// replacement on a static applicability check. This package is that
// check.
//
// It is built on the standard library alone — go/ast and go/types for
// the analysis, `go list -export` for package loading — because this
// module carries no external dependencies.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
)

// Severity ranks a diagnostic, mirroring rules.Severity with one extra
// rung: Info findings are classification facts (a site is unsafe to
// specialize because it escapes), not defects; warnings are suspicious
// but functional; errors are constructs that are almost certainly bugs.
// Only errors affect the CLI's exit status (docs/ANALYSIS.md).
type Severity int

const (
	// SevInfo records a classification fact about a site.
	SevInfo Severity = iota
	// SevWarning flags a suspicious construct that still works.
	SevWarning
	// SevError flags a construct that is almost certainly a defect.
	SevError
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	default:
		return "info"
	}
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "error":
		*s = SevError
	case "warning":
		*s = SevWarning
	case "info":
		*s = SevInfo
	default:
		return fmt.Errorf("unknown severity %q", name)
	}
	return nil
}

// Diagnostic codes. Like the rule-vet codes of PR 1 they are stable,
// machine-readable, and catalogued one by one in docs/ANALYSIS.md; the
// S-series covers specialization safety, label hygiene, and the
// manifest cross-checks.
const (
	// CodeEscapes (S001, info): the collection value leaves the
	// allocating function — returned, stored into a struct, global or
	// composite, aliased, passed to another function, or captured by a
	// closure. The site cannot be specialized in isolation.
	CodeEscapes = "S001"
	// CodeInterface (S002, info): the value is stored into an interface
	// or `any`; the wrapper type is observable through dynamic dispatch.
	CodeInterface = "S002"
	// CodeAssert (S003, error): a type assertion (or type switch case)
	// targets a concrete chameleon wrapper type — the code reaches back
	// through the abstraction and would break under specialization.
	CodeAssert = "S003"
	// CodeGoroutine (S004, info): the value crosses a goroutine boundary
	// (go statement or channel send); single-owner profiling evidence
	// does not transfer.
	CodeGoroutine = "S004"
	// CodeIdentity (S005, error): wrapper identity is observed — compared
	// with == or != against something other than nil, or used as a map
	// key. Identity is a property of the wrapper object, not the
	// abstract collection, and does not survive specialization.
	CodeIdentity = "S005"
	// CodeDupLabel (S006, warning): two distinct allocation sites carry
	// the same static At label; their profiles merge and a per-site
	// specialization decision is ambiguous.
	CodeDupLabel = "S006"
	// CodeOpaqueLabel (S007, warning): an At label (or a whole option
	// argument) is not a compile-time constant, so the site cannot be
	// joined against profile snapshots statically.
	CodeOpaqueLabel = "S007"
	// CodeOpaqueCap (S008, info): a Cap argument is not a compile-time
	// constant; the manifest records the capacity as unknown.
	CodeOpaqueCap = "S008"
	// CodeDeadRule (S009, warning): a rule's srcType matches no
	// discovered allocation site — relative to this program the rule can
	// never fire.
	CodeDeadRule = "S009"
	// CodeUncoveredSite (S010, info): no rule in the set covers the
	// site's declared kind; profiling it can never produce a suggestion.
	CodeUncoveredSite = "S010"
	// CodeStaleContext (S011, warning): a profile-snapshot context joins
	// no surviving source site; the profile is stale relative to the
	// program being analyzed.
	CodeStaleContext = "S011"
)

// severityOf maps each code to its fixed severity.
var severityOf = map[string]Severity{
	CodeEscapes:       SevInfo,
	CodeInterface:     SevInfo,
	CodeAssert:        SevError,
	CodeGoroutine:     SevInfo,
	CodeIdentity:      SevError,
	CodeDupLabel:      SevWarning,
	CodeOpaqueLabel:   SevWarning,
	CodeOpaqueCap:     SevInfo,
	CodeDeadRule:      SevWarning,
	CodeUncoveredSite: SevInfo,
	CodeStaleContext:  SevWarning,
}

// SeverityOf reports the fixed severity of a diagnostic code.
func SeverityOf(code string) Severity { return severityOf[code] }

// Position is a resolved source position. It is the JSON-stable
// equivalent of token.Position.
type Position struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// String renders "file:line:col" (or "-" when unknown).
func (p Position) String() string {
	if p.File == "" && p.Line == 0 {
		return "-"
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Diagnostic is one positioned finding, shaped like the go/analysis
// diagnostic plus the stable code and severity the chameleon toolchain
// attaches to every finding (cf. rules.Diagnostic).
type Diagnostic struct {
	Pos      Position `json:"pos"`
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	Message  string   `json:"message"`
	// SiteID names the manifest site the finding is about, when any.
	SiteID string `json:"siteID,omitempty"`
	// Related locates a second involved construct (the other site of a
	// duplicate label), when there is one.
	Related *Position `json:"related,omitempty"`
}

// String renders the CLI text form: "file:line:col: severity [code] message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s] %s", d.Pos, d.Severity, d.Code, d.Message)
}

// Pass carries one package through the per-package checks (site
// discovery, escape, misuse) and collects their diagnostics.
type Pass struct {
	Pkg   *Package
	diags []Diagnostic
}

// Position resolves a token.Pos against the package's file set.
func (p *Pass) Position(pos token.Pos) Position {
	tp := p.Pkg.Fset.Position(pos)
	return Position{File: tp.Filename, Line: tp.Line, Col: tp.Column}
}

// Report records a diagnostic, filling its severity from the code table
// when unset.
func (p *Pass) Report(d Diagnostic) {
	if d.Severity == SevInfo {
		d.Severity = severityOf[d.Code]
	}
	p.diags = append(p.diags, d)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, code string, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      p.Position(pos),
		Code:     code,
		Severity: severityOf[code],
		Message:  fmt.Sprintf(format, args...),
	})
}
