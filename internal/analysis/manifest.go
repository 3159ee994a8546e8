package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"os"
	"sort"

	"chameleon/internal/atomicfile"
)

// The site manifest: the machine-readable join surface between static
// analysis, profiling, and (next) source rewriting. chameleon-sites
// emits it; chameleon-apply and fleet profile aggregation consume it.
// Like the profiler's snapshot format it is versioned and format-tagged
// so readers can reject what they do not understand.

const (
	// ManifestFormat is the manifest's format tag.
	ManifestFormat = "chameleon-sites"
	// ManifestVersion is the current manifest schema version.
	ManifestVersion = 1
	// maxManifestSites caps what a reader will accept, so corrupt or
	// hostile input cannot allocate unboundedly (cf. profiler's
	// maxSnapshotRecords).
	maxManifestSites = 1 << 20
)

// Label kinds: how a site's context label was derived.
const (
	// LabelStatic: the site carries a constant At label; its context key
	// is derivable and joins runtime snapshots exactly.
	LabelStatic = "static"
	// LabelFrame: no At label; the label is the frame label dynamic
	// capture would symbolize (innermost frame only — outer frames are
	// not statically known, so joins are by first frame).
	LabelFrame = "frame"
)

// Site is one allocation site record.
type Site struct {
	// ID is the stable site identity: "file:line:col".
	ID string `json:"id"`
	// File, Line, Col locate the constructor call.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Pkg is the import path of the allocating package.
	Pkg string `json:"pkg"`
	// Func is the runtime-style qualified enclosing function.
	Func string `json:"func"`
	// Constructor is the collections constructor called (NewArrayList…).
	Constructor string `json:"constructor"`
	// ADT is the abstract type (List, Set, Map).
	ADT string `json:"adt"`
	// Declared is the declared kind (ArrayList, HashMap, …); for
	// NewListFrom sites it is the ADT and Inherited is set.
	Declared string `json:"declared"`
	// Inherited marks sites whose declared kind is taken from a source
	// collection at run time (NewListFrom).
	Inherited bool `json:"inherited,omitempty"`
	// Forced is the Impl(...) override, when present and constant.
	Forced string `json:"forced,omitempty"`
	// Capacity is the constant Cap(...) argument; 0 when absent, -1 when
	// present but not statically resolvable.
	Capacity int `json:"capacity,omitempty"`
	// Label is the allocation-context label: the constant At label
	// (LabelKind "static") or the derived frame label (LabelKind
	// "frame").
	Label string `json:"label"`
	// LabelKind says how Label was derived.
	LabelKind string `json:"labelKind"`
	// ContextKey is the interned context key alloctx.Static assigns the
	// label — static labels only (dynamic keys hash program counters and
	// are not statically derivable). Serialized as a decimal string
	// (`,string`): a bare uint64 does not survive float64 JSON readers.
	ContextKey uint64 `json:"contextKey,omitempty,string"`
	// OpaqueOptions marks sites with option arguments the analyzer could
	// not resolve.
	OpaqueOptions bool `json:"opaqueOptions,omitempty"`
	// Arm identifies the innermost exclusive branch arm containing the
	// site ("rootFile:line:col#armLine:armCol"): sites under different
	// arms of one if/else chain or switch never execute on the same pass,
	// so a label shared between them does not merge profiles within a
	// run. Duplicate-label detection (S006) uses this to exempt the
	// baseline/tuned variant idiom.
	Arm string `json:"arm,omitempty"`
	// Safe reports the specialization-safety verdict: no escape-class
	// refutation (S001/S002/S004) and no identity or assertion misuse
	// (S003/S005) involves this site.
	Safe bool `json:"safe"`
	// Findings are the refutations and lints recorded against the site.
	Findings []Finding `json:"findings,omitempty"`

	// The syntax behind the record, set by Analyze and never serialized
	// (a site read back from a manifest has none): the constructor call,
	// the enclosing function body (nil for package-level sites) and the
	// file set positioning both. CapArgs and ImplArgs are the call's
	// arguments that resolved to Cap(...) and Impl(...), however they
	// resolved (direct option call, helper, single-assignment variable):
	// the syntax chameleon-apply replaces or drops, rewriting only this
	// call, never the helper an option came from.
	Call     *ast.CallExpr  `json:"-"`
	Body     *ast.BlockStmt `json:"-"`
	Fset     *token.FileSet `json:"-"`
	CapArgs  []ast.Expr     `json:"-"`
	ImplArgs []ast.Expr     `json:"-"`
}

// Finding is one per-site refutation: the diagnostic code, where the
// offending use is, and why.
type Finding struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	Pos      Position `json:"pos"`
	Message  string   `json:"message"`
}

// Manifest is the versioned site manifest.
type Manifest struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Module is the module path the sites belong to.
	Module string `json:"module,omitempty"`
	// Packages are the analyzed package import paths.
	Packages []string `json:"packages"`
	Sites    []Site   `json:"sites"`
}

// NewManifest assembles a manifest from discovered sites, sorted by site
// ID so output is deterministic.
func NewManifest(module string, pkgs []string, sites []Site) *Manifest {
	m := &Manifest{
		Format:   ManifestFormat,
		Version:  ManifestVersion,
		Module:   module,
		Packages: append([]string(nil), pkgs...),
		Sites:    append([]Site(nil), sites...),
	}
	sort.Strings(m.Packages)
	sort.Slice(m.Sites, func(i, j int) bool {
		a, b := m.Sites[i], m.Sites[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return m
}

// WriteManifest writes the manifest as indented JSON.
func WriteManifest(w io.Writer, m *Manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteManifestFile writes the manifest through atomicfile.Write, like
// profiler snapshots: a crash leaves the old manifest or the new one,
// never a torn hybrid.
func WriteManifestFile(path string, m *Manifest) error {
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		return err
	}
	return atomicfile.Write(path, buf.Bytes())
}

// ReadManifest reads and validates a manifest.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest: %v", err)
	}
	if m.Format != ManifestFormat {
		return nil, fmt.Errorf("manifest: format %q, want %q", m.Format, ManifestFormat)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("manifest: version %d not supported (reader speaks %d)", m.Version, ManifestVersion)
	}
	if len(m.Sites) > maxManifestSites {
		return nil, fmt.Errorf("manifest: %d sites exceeds the reader cap", len(m.Sites))
	}
	return &m, nil
}

// ReadManifestFile reads a manifest from disk.
func ReadManifestFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadManifest(f)
}
