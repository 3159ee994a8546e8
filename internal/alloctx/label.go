package alloctx

import (
	"strconv"
	"strings"
)

// Static-label derivation, shared between the runtime and the static
// analyzer (internal/analysis, cmd/chameleon-sites). The analyzer
// recovers each allocation site's context label and interned key from
// source alone; these helpers are the single definition of how a label
// is rendered and keyed, so a key computed from a manifest matches the
// key the running program interns for the same site. Tests in
// label_test.go and internal/analysis assert the agreement both ways.

// SiteLabel renders the label of one allocation-site frame exactly as
// dynamic capture symbolizes it: the function name trimmed to its last
// import-path element, a colon, and the line number. A static analyzer
// holding a site's fully qualified function name
// ("chameleon/internal/workloads.(*TVLA).step") and line produces the
// same label a runtime.Frame for that site would.
func SiteLabel(function string, line int) string {
	return trimFunc(function) + ":" + strconv.Itoa(line)
}

// JoinFrames joins per-frame labels — innermost (the allocation site)
// first — into the context's String form: "site:line;caller:line".
func JoinFrames(labels ...string) string {
	return strings.Join(labels, ";")
}

// FirstFrame reports the innermost frame of a rendered context label:
// the allocation site itself. It is the join key used to match a static
// site against a dynamically captured context whose outer frames the
// analyzer cannot know.
func FirstFrame(label string) string {
	if i := strings.IndexByte(label, ';'); i >= 0 {
		return label[:i]
	}
	return label
}

// StaticKey reports the canonical interned key Static(label) assigns: a
// 64-bit FNV-1a of the label under the "static:" namespace. When two
// distinct contexts collide on a key (astronomically rare) the table
// linearly probes past it, so StaticKey is the key Static returns for
// every practical input; consumers that must be exact can confirm with
// Table.Lookup.
func StaticKey(label string) uint64 {
	h := fnvString(fnvString(fnvOffset, "static:"), label)
	if h == 0 {
		h = 1
	}
	return h
}
