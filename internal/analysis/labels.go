package analysis

import (
	"sort"
	"strings"
)

// Label hygiene (S006): two distinct allocation sites carrying the same
// static At label share one interned context, so their profiles merge
// and any per-site specialization decision becomes ambiguous. Labels
// collide across packages just as well, so the driver runs DupLabels
// once over the merged site list and each collision is diagnosed
// exactly once.

// DupLabels scans a merged site list for static-label collisions and
// returns one diagnostic per colliding site, each pointing at another
// member of its group via Related. It also appends the finding to each
// offending site's Findings so the manifest records the collision.
func DupLabels(sites []Site) []Diagnostic {
	byLabel := map[string][]int{}
	for i, s := range sites {
		if s.LabelKind == LabelStatic && s.Label != "" {
			byLabel[s.Label] = append(byLabel[s.Label], i)
		}
	}
	labels := make([]string, 0, len(byLabel))
	for l, idx := range byLabel {
		if len(idx) > 1 && !exclusiveGroup(sites, idx) {
			labels = append(labels, l)
		}
	}
	sort.Strings(labels)
	var diags []Diagnostic
	for _, l := range labels {
		idx := byLabel[l]
		for n, i := range idx {
			s := &sites[i]
			// Point each site at another member of its group: the first
			// site at the second, everyone else back at the first.
			other := &sites[idx[0]]
			if n == 0 {
				other = &sites[idx[1]]
			}
			pos := Position{File: s.File, Line: s.Line, Col: s.Col}
			otherPos := Position{File: other.File, Line: other.Line, Col: other.Col}
			msg := "static label " + l + " is shared with " + other.ID + ": profiles for the sites merge"
			diags = append(diags, Diagnostic{
				Pos:      pos,
				Code:     CodeDupLabel,
				Severity: SeverityOf(CodeDupLabel),
				Message:  msg,
				SiteID:   s.ID,
				Related:  &otherPos,
			})
			s.Findings = append(s.Findings, Finding{
				Code: CodeDupLabel, Severity: SeverityOf(CodeDupLabel), Pos: pos, Message: msg,
			})
		}
	}
	return diags
}

// exclusiveGroup reports whether every site in the group sits in a
// distinct arm of one exclusive construct (one if/else chain or one
// switch): at most one of them can allocate per pass, so the shared
// label merges nothing within a run. This exempts the pervasive
// baseline/tuned variant idiom from S006.
func exclusiveGroup(sites []Site, idx []int) bool {
	root := ""
	arms := map[string]bool{}
	for _, i := range idx {
		r, a, found := strings.Cut(sites[i].Arm, "#")
		if !found {
			return false // not inside any exclusive arm
		}
		if root == "" {
			root = r
		} else if root != r {
			return false // different constructs: genuinely concurrent
		}
		if arms[a] {
			return false // two sites in the same arm do collide
		}
		arms[a] = true
	}
	return true
}
